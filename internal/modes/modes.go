// Package modes implements the block-cipher modes of operation the MCCP
// supports — CTR, CBC-MAC, CCM (SP 800-38C / RFC 3610) and GCM (SP 800-38D)
// — as pure software reference implementations over a generic 128-bit block
// cipher.
//
// These references serve two purposes. First, they are the ground truth the
// cycle-accurate MCCP firmware is differentially tested against. Second,
// they define the packet formatting contract of the radio's communication
// controller: the paper's Cryptographic Unit "cannot be used to format the
// plain text according to the specifications of block cipher modes of
// operation", so B0/A0/J0 construction, padding and tag truncation live
// outside the cores.
package modes

import (
	"fmt"

	"mccp/internal/bits"
	"mccp/internal/verdict"
)

// BlockCipher is a 128-bit block cipher in the forward (encrypt) direction.
// The MCCP hardware only ever uses the forward direction: CTR, CCM and GCM
// need no block decryption. AES is the paper's instantiation; Twofish is
// provided to demonstrate the "any 128-bit block cipher" claim.
type BlockCipher interface {
	Encrypt(bits.Block) bits.Block
}

// ErrAuth is returned when an authenticated decryption fails tag
// verification. The MCCP reports this as the AUTH_FAIL flag of
// RETRIEVE_DATA and flushes the output FIFO.
var ErrAuth = verdict.ErrAuth

// CTR encrypts (or, identically, decrypts) data with counter mode starting
// from the given initial counter block. Counters step via 32-bit increment
// on the final word, per SP 800-38D; the hardware uses the 16-bit Inc core,
// which agrees for all packets that fit the 2 KB FIFO.
func CTR(c BlockCipher, icb bits.Block, data []byte) []byte {
	out := make([]byte, len(data))
	ctr := icb
	for i := 0; i < len(data); i += bits.BlockBytes {
		ks := c.Encrypt(ctr)
		n := len(data) - i
		if n > bits.BlockBytes {
			n = bits.BlockBytes
		}
		for j := 0; j < n; j++ {
			out[i+j] = data[i+j] ^ ks[j]
		}
		ctr = ctr.Inc32(1)
	}
	return out
}

// CBCMAC computes the raw CBC-MAC over whole blocks with a zero IV
// (FIPS 113 style, as used inside CCM). The caller is responsible for
// length-prefixing / padding rules; CCM's B-block formatting provides them.
func CBCMAC(c BlockCipher, blocks []bits.Block) bits.Block {
	var acc bits.Block
	for _, b := range blocks {
		acc = c.Encrypt(acc.XOR(b))
	}
	return acc
}

// ccmFormat builds the B blocks (B0, encoded AAD, padded payload) and the
// initial counter block A0 for CCM, per SP 800-38C Appendix A / RFC 3610.
// nonce length determines the length-field width q = 15 - len(nonce).
func ccmFormat(nonce, aad, payload []byte, tagLen int) (bblocks []bits.Block, a0 bits.Block, err error) {
	n := len(nonce)
	if n < 7 || n > 13 {
		return nil, a0, fmt.Errorf("modes: CCM nonce length %d not in [7,13]", n)
	}
	if tagLen < 4 || tagLen > 16 || tagLen%2 != 0 {
		return nil, a0, fmt.Errorf("modes: CCM tag length %d invalid", tagLen)
	}
	q := 15 - n
	if q < 8 {
		limit := uint64(1) << uint(8*q)
		if uint64(len(payload)) >= limit {
			return nil, a0, fmt.Errorf("modes: payload too long for %d-byte length field", q)
		}
	}

	// B0: flags || nonce || Q.
	var b0 bits.Block
	flags := byte(0)
	if len(aad) > 0 {
		flags |= 0x40
	}
	flags |= byte((tagLen-2)/2) << 3
	flags |= byte(q - 1)
	b0[0] = flags
	copy(b0[1:1+n], nonce)
	plen := uint64(len(payload))
	for i := 0; i < q; i++ {
		b0[15-i] = byte(plen >> uint(8*i))
	}
	bblocks = append(bblocks, b0)

	// AAD encoding: length prefix then data, zero-padded to a block edge.
	if len(aad) > 0 {
		var enc []byte
		switch {
		case len(aad) < 0xFF00:
			enc = append(enc, byte(len(aad)>>8), byte(len(aad)))
		default:
			enc = append(enc, 0xFF, 0xFE,
				byte(len(aad)>>24), byte(len(aad)>>16), byte(len(aad)>>8), byte(len(aad)))
		}
		enc = append(enc, aad...)
		bblocks = append(bblocks, bits.PadBlocks(enc)...)
	}

	// Payload, zero-padded.
	bblocks = append(bblocks, bits.PadBlocks(payload)...)

	// A0: flags' || nonce || counter(=0).
	a0[0] = byte(q - 1)
	copy(a0[1:1+n], nonce)
	return bblocks, a0, nil
}

// CCMSeal encrypts and authenticates payload with AES-CCM semantics,
// returning ciphertext || tag (tagLen bytes).
func CCMSeal(c BlockCipher, nonce, aad, payload []byte, tagLen int) ([]byte, error) {
	bblocks, a0, err := ccmFormat(nonce, aad, payload, tagLen)
	if err != nil {
		return nil, err
	}
	mac := CBCMAC(c, bblocks)
	s0 := c.Encrypt(a0)
	ct := CTR(c, a0.Inc32(1), payload)
	tag := mac.XOR(s0)
	return append(ct, tag[:tagLen]...), nil
}

// CCMOpen verifies and decrypts ciphertext||tag produced by CCMSeal.
func CCMOpen(c BlockCipher, nonce, aad, sealed []byte, tagLen int) ([]byte, error) {
	if len(sealed) < tagLen {
		return nil, ErrAuth
	}
	ct, tag := sealed[:len(sealed)-tagLen], sealed[len(sealed)-tagLen:]
	_, a0, err := ccmFormat(nonce, aad, make([]byte, len(ct)), tagLen)
	if err != nil {
		return nil, err
	}
	pt := CTR(c, a0.Inc32(1), ct)
	bblocks, _, err := ccmFormat(nonce, aad, pt, tagLen)
	if err != nil {
		return nil, err
	}
	mac := CBCMAC(c, bblocks)
	s0 := c.Encrypt(a0)
	want := mac.XOR(s0)
	var diff byte
	for i := 0; i < tagLen; i++ {
		diff |= want[i] ^ tag[i]
	}
	if diff != 0 {
		return nil, ErrAuth
	}
	return pt, nil
}

// gcmGHASH computes GHASH_H over padded AAD, padded ciphertext and the
// 64+64-bit lengths block, using the multiply function supplied by the
// caller (the ghash package provides it; taking it as a parameter keeps the
// package dependency graph acyclic).
type MulFunc func(x, y bits.Block) bits.Block

func gcmGHASH(mul MulFunc, h bits.Block, aad, ct []byte) bits.Block {
	var y bits.Block
	absorb := func(p []byte) {
		for _, b := range bits.PadBlocks(p) {
			y = mul(y.XOR(b), h)
		}
	}
	absorb(aad)
	absorb(ct)
	var lens bits.Block
	putLen := func(off, n int) {
		v := uint64(n) * 8
		for k := 0; k < 8; k++ {
			lens[off+k] = byte(v >> uint(56-8*k))
		}
	}
	putLen(0, len(aad))
	putLen(8, len(ct))
	y = mul(y.XOR(lens), h)
	return y
}

// GCM provides SP 800-38D seal/open over a BlockCipher and a GF(2^128)
// multiplier.
type GCM struct {
	C   BlockCipher
	Mul MulFunc
	// TagLen is the tag length in bytes; zero means 16.
	TagLen int
}

func (g *GCM) tagLen() int {
	if g.TagLen == 0 {
		return 16
	}
	return g.TagLen
}

// j0 derives the pre-counter block from the IV.
func (g *GCM) j0(h bits.Block, iv []byte) bits.Block {
	if len(iv) == 12 {
		var j bits.Block
		copy(j[:12], iv)
		j[15] = 1
		return j
	}
	return gcmGHASH(g.Mul, h, nil, iv) // GHASH(pad(iv) || lens) with aad="" ct=iv
}

// Seal encrypts and authenticates payload, returning ciphertext || tag.
func (g *GCM) Seal(iv, aad, payload []byte) []byte {
	h := g.C.Encrypt(bits.Block{})
	j0 := g.j0(h, iv)
	ct := CTR(g.C, j0.Inc32(1), payload)
	s := gcmGHASH(g.Mul, h, aad, ct)
	tag := s.XOR(g.C.Encrypt(j0))
	return append(ct, tag[:g.tagLen()]...)
}

// Open verifies and decrypts ciphertext||tag.
func (g *GCM) Open(iv, aad, sealed []byte) ([]byte, error) {
	tl := g.tagLen()
	if len(sealed) < tl {
		return nil, ErrAuth
	}
	ct, tag := sealed[:len(sealed)-tl], sealed[len(sealed)-tl:]
	h := g.C.Encrypt(bits.Block{})
	j0 := g.j0(h, iv)
	s := gcmGHASH(g.Mul, h, aad, ct)
	want := s.XOR(g.C.Encrypt(j0))
	var diff byte
	for i := 0; i < tl; i++ {
		diff |= want[i] ^ tag[i]
	}
	if diff != 0 {
		return nil, ErrAuth
	}
	return CTR(g.C, j0.Inc32(1), ct), nil
}
