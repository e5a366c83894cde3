package aes

import (
	stdaes "crypto/aes"
	"crypto/cipher"

	"mccp/internal/bits"
)

// Core32 models the compact iterative AES encryption core embedded in each
// Cryptographic Unit: a 32-bit datapath that consumes a 128-bit block as
// four 32-bit words and produces the ciphertext CoreCycles() clock cycles
// after the start strobe (44/52/60 cycles for 128/192/256-bit keys).
//
// The core reads pre-computed round keys from the Key Cache; it performs no
// key expansion of its own (that is the Key Scheduler's job). Like the
// paper's core it implements encryption only.
//
// Only the timing is modeled; the block values are computed by the
// standard library's AES (AES-NI where the host has it) whenever the
// installed schedule is the FIPS-197 expansion of a key, and by this
// package's Cipher otherwise (a schedule altered by hand, say). Both give
// the same bytes for a FIPS schedule; the differential tests pin it.
type Core32 struct {
	size KeySize
	keys []bits.Block
	// std computes the block values when keys is a FIPS-197 expansion,
	// nil otherwise.
	std cipher.Block
	// memo remembers the standard-library cipher of the last few schedules
	// by value, so reinstalling a schedule derives nothing — after a Key
	// Cache hit, and after the Key Scheduler re-expanded an evicted key.
	memo      [memoSlots]stdMemo
	memoClock uint64
	// busyUntil is the absolute cycle at which the current computation
	// finishes; the Cryptographic Unit uses it to model SAES/FAES overlap.
	busyUntil uint64
	// in stages Start's input: handing a field (not the by-value argument)
	// to the cipher.Block interface keeps the call allocation-free.
	in, out bits.Block
	started bool
}

// memoSlots is twice the Key Cache's four key contexts, so the memo still
// holds a schedule the Key Cache has evicted and must re-expand.
const memoSlots = 8

// stdMemo is one remembered schedule and the cipher derived from it (nil
// when the schedule is not a FIPS-197 expansion).
type stdMemo struct {
	size KeySize
	keys [15]bits.Block
	std  cipher.Block
	used uint64
}

// NewCore32 returns an idle core with no key loaded.
func NewCore32() *Core32 { return &Core32{} }

// LoadKeys installs pre-expanded round keys (from the Key Cache) and the
// corresponding key size. It is an error to reload while a computation is
// conceptually in flight; callers sequence this through firmware.
func (c *Core32) LoadKeys(size KeySize, keys []bits.Block) {
	if len(keys) != size.Rounds()+1 {
		panic("aes: round key count does not match key size")
	}
	c.size = size
	c.keys = keys
	c.std = c.stdCipher(size, keys)
}

// stdCipher returns the standard-library cipher for a schedule, deriving it
// only when the schedule is not among the remembered ones.
func (c *Core32) stdCipher(size KeySize, keys []bits.Block) cipher.Block {
	c.memoClock++
	victim := 0
	for i := range c.memo {
		m := &c.memo[i]
		if m.used != 0 && m.size == size && sameBlocks(m.keys[:len(keys)], keys) {
			m.used = c.memoClock
			return m.std
		}
		if m.used < c.memo[victim].used {
			victim = i
		}
	}
	m := &c.memo[victim]
	m.size, m.used = size, c.memoClock
	copy(m.keys[:], keys)
	m.std = deriveStd(size, keys)
	return m.std
}

func sameBlocks(a, b []bits.Block) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deriveStd recovers the cipher key from the head of the schedule (the
// first Nk words of a FIPS-197 expansion are the key itself) and returns
// its standard-library cipher if the whole schedule is that key's
// expansion, nil otherwise.
func deriveStd(size KeySize, keys []bits.Block) cipher.Block {
	var raw [32]byte
	key := raw[:size]
	copy(key, keys[0][:])
	copy(key[bits.BlockBytes:], keys[1][:])
	var rk [15]bits.Block
	expandInto(rk[:len(keys)], key)
	if !sameBlocks(rk[:len(keys)], keys) {
		return nil
	}
	std, err := stdaes.NewCipher(key)
	if err != nil {
		return nil
	}
	return std
}

// KeyLoaded reports whether round keys are installed.
func (c *Core32) KeyLoaded() bool { return c.keys != nil }

// Size returns the loaded key size.
func (c *Core32) Size() KeySize { return c.size }

// Start begins encrypting in at absolute cycle now and returns the absolute
// cycle at which the result is ready. The functional result is computed
// eagerly (the simulator is not a netlist), but it may only be observed via
// Collect, which models the FAES finalization.
func (c *Core32) Start(now uint64, in bits.Block) uint64 {
	if c.keys == nil {
		panic("aes: Start with no key loaded")
	}
	if c.std != nil {
		c.in = in
		c.std.Encrypt(c.out[:], c.in[:])
	} else {
		c.out = (&Cipher{size: c.size, enc: c.keys}).Encrypt(in)
	}
	c.busyUntil = now + c.size.CoreCycles()
	c.started = true
	return c.busyUntil
}

// Busy reports whether a started computation has not yet been collected.
func (c *Core32) Busy() bool { return c.started }

// ReadyAt returns the completion cycle of the computation in flight.
func (c *Core32) ReadyAt() uint64 { return c.busyUntil }

// Collect returns the ciphertext of the last started block and marks the
// core idle. The caller is responsible for honouring ReadyAt (the
// Cryptographic Unit's FAES instruction waits for the done line).
func (c *Core32) Collect() bits.Block {
	if !c.started {
		panic("aes: Collect with no computation in flight")
	}
	c.started = false
	return c.out
}
