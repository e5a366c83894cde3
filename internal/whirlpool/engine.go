package whirlpool

import "mccp/internal/bits"

// Timing model of the compact Whirlpool core occupying the reconfigurable
// region (Table IV: 1153 slices, 4 BRAMs). A 64-bit datapath absorbs one
// 128-bit chunk per ChunkCycles and runs the ten W rounds (data path and
// key schedule interleaved on the shared round logic) in BlockCycles once a
// full 512-bit block is assembled.
const (
	ChunkCycles = 2
	BlockCycles = 112 // ~10 rounds x (8 row ops + key step) + load/unload
)

// Engine adapts Whirlpool to the Cryptographic Unit's engine slot: SAES
// absorbs one 128-bit chunk, and once the message (pre-padded by the
// communication controller) is fully absorbed, FAES reads the 512-bit
// digest back as four chunks via the ChunkReader path.
type Engine struct {
	buf     []byte
	h       state
	readyAt uint64
	// digest readout
	out     [DigestBytes]byte
	outIdx  int
	settled bool
}

// NewEngine returns a fresh engine (H_0 = 0, empty buffer).
func NewEngine() *Engine { return &Engine{} }

// Reset clears all hashing state for a new message.
func (e *Engine) Reset() { *e = Engine{} }

// Busy implements cryptounit.CipherEngine. Absorption is self-completing
// (no Collect needed), so the engine never reports busy; back-to-back
// starts serialize through ReadyAt.
func (e *Engine) Busy() bool { return false }

// ReadyAt implements cryptounit.CipherEngine.
func (e *Engine) ReadyAt() uint64 { return e.readyAt }

// Start absorbs one 128-bit chunk at cycle now and returns the completion
// cycle (longer when the chunk completes a 512-bit block and triggers a
// compression).
func (e *Engine) Start(now uint64, in bits.Block) uint64 {
	if now < e.readyAt {
		now = e.readyAt // hardware back-pressures the start strobe
	}
	e.buf = append(e.buf, in[:]...)
	e.settled = false
	cost := uint64(ChunkCycles)
	if len(e.buf) == BlockBytes {
		m := toState(e.buf)
		e.h = wEncrypt(e.h, m).xor(m).xor(e.h)
		e.buf = e.buf[:0]
		cost = BlockCycles
	}
	e.readyAt = now + cost
	return e.readyAt
}

// Collect implements cryptounit.CipherEngine. It is never reached for a
// hash engine (Busy is always false, so FAES takes the ChunkReader path),
// but the interface requires it.
func (e *Engine) Collect() bits.Block { return bits.Block{} }

// ReadChunk implements cryptounit.ChunkReader: successive 128-bit slices of
// the digest. The digest snapshot is taken at the first read after the
// final absorbed block.
func (e *Engine) ReadChunk() bits.Block {
	if !e.settled {
		copy(e.out[:], e.h.bytes())
		e.outIdx = 0
		e.settled = true
	}
	var b bits.Block
	copy(b[:], e.out[16*e.outIdx:16*e.outIdx+16])
	e.outIdx = (e.outIdx + 1) % 4
	if e.outIdx == 0 {
		// The digest is fully read out: the next absorbed chunk starts a
		// new message from H_0.
		e.h = state{}
		e.buf = e.buf[:0]
	}
	return b
}
