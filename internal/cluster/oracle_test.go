package cluster

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"
	"testing"

	"mccp/internal/aes"
	"mccp/internal/core"
	"mccp/internal/cryptocore"
	"mccp/internal/modes"
	"mccp/internal/radio"
	"mccp/internal/reconfig"
	"mccp/internal/sim"
	"mccp/internal/whirlpool"
)

// TestSessionSubmitOracle checks the bytes the cluster serves against
// independent references, through both Submit and its synchronous form
// Do: GCM against crypto/cipher and CCM against modes.CCMSeal under the
// session's own key, Whirlpool against the reference sum. Every sealed
// packet must decrypt back to its plaintext, and a flipped tag bit must
// give radio.ErrAuth.
func TestSessionSubmitOracle(t *testing.T) {
	cl, err := New(Config{Shards: 2, Router: RouterFamilyAffinity, QueueRequests: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Reconfigure(1, 0, reconfig.EngineWhirlpool, reconfig.StagingRAM); err != nil {
		t.Fatal(err)
	}
	gcm, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyGCM, TagLen: 16}, KeyLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	ccm, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyCCM, TagLen: 8}, KeyLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cl.Open(OpenSpec{Suite: core.Suite{Family: cryptocore.FamilyHash}})
	if err != nil {
		t.Fatal(err)
	}

	blk, err := stdaes.NewCipher(gcm.key[:gcm.keyLen])
	if err != nil {
		t.Fatal(err)
	}
	gcmRef, _ := cipher.NewGCM(blk)
	ccmKey := aes.MustNew(ccm.key[:ccm.keyLen])

	type packet struct {
		ses             *Session
		nonce, aad, msg []byte
		want            []byte
		tagLen          int
	}
	var packets []packet
	for i, n := range []int{1, 16, 100, 512, 1000} {
		msg := bytes.Repeat([]byte{byte(i + 1)}, n)
		aad := []byte(fmt.Sprintf("header %d", i))
		nonce12 := bytes.Repeat([]byte{byte(0x40 + i)}, 12)
		nonce13 := bytes.Repeat([]byte{byte(0x80 + i)}, 13)
		ccmWant, err := modes.CCMSeal(ccmKey, nonce13, aad, msg, 8)
		if err != nil {
			t.Fatal(err)
		}
		digest := whirlpool.Sum(msg)
		packets = append(packets,
			packet{ses: gcm, nonce: nonce12, aad: aad, msg: msg, want: gcmRef.Seal(nil, nonce12, msg, aad), tagLen: 16},
			packet{ses: ccm, nonce: nonce13, aad: aad, msg: msg, want: ccmWant, tagLen: 8},
			packet{ses: hash, msg: msg, want: digest[:]})
	}
	kindOf := func(p packet) OpKind {
		if p.tagLen == 0 {
			return OpHash
		}
		return OpEncrypt
	}

	// Asynchronous: every packet in one burst, results in enqueue order.
	got := make([][]byte, len(packets))
	for i, p := range packets {
		i := i
		p.ses.Submit(Op{Kind: kindOf(p), Nonce: p.nonce, AAD: p.aad, Data: p.msg},
			func(out []byte, took sim.Time, err error) {
				if err != nil {
					t.Errorf("packet %d: %v", i, err)
				}
				if took == 0 {
					t.Errorf("packet %d: no service latency reported", i)
				}
				got[i] = out
			})
	}
	cl.Flush()
	for i, p := range packets {
		if !bytes.Equal(got[i], p.want) {
			t.Fatalf("Submit packet %d (%v, %d bytes): served bytes differ from the reference\n%x\n%x", i, p.ses.suite.Family, len(p.msg), got[i], p.want)
		}
	}

	// Synchronous form, then decrypt round-trips and forged tags.
	for i, p := range packets {
		out, err := p.ses.Do(Op{Kind: kindOf(p), Nonce: p.nonce, AAD: p.aad, Data: p.msg})
		if err != nil || !bytes.Equal(out, p.want) {
			t.Fatalf("Do packet %d (%v): err %v, bytes match %v", i, p.ses.suite.Family, err, bytes.Equal(out, p.want))
		}
		if p.tagLen == 0 {
			continue
		}
		ct, tag := p.want[:len(p.msg)], p.want[len(p.msg):]
		plain, err := p.ses.Do(Op{Kind: OpDecrypt, Nonce: p.nonce, AAD: p.aad, Data: ct, Tag: tag})
		if err != nil || !bytes.Equal(plain, p.msg) {
			t.Fatalf("decrypt packet %d (%v): err %v, round-trip %v", i, p.ses.suite.Family, err, bytes.Equal(plain, p.msg))
		}
		forged := append([]byte(nil), tag...)
		forged[len(forged)-1] ^= 1
		if _, err := p.ses.Do(Op{Kind: OpDecrypt, Nonce: p.nonce, AAD: p.aad, Data: ct, Tag: forged}); err != radio.ErrAuth {
			t.Fatalf("decrypt packet %d (%v) with a flipped tag bit: %v, want ErrAuth", i, p.ses.suite.Family, err)
		}
	}
}
