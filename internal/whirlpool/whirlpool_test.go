package whirlpool

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"mccp/internal/bits"
)

// ISO test vectors (the "final" Whirlpool, as shipped in the reference
// implementation's iso-test-vectors.txt).
var vectors = []struct {
	in  string
	out string
}{
	{"", "19fa61d75522a4669b44e39c1d2e1726c530232130d407f89afee0964997f7a73e83be698b288febcf88e3e03c4f0757ea8964e59b63d93708b138cc42a66eb3"},
	{"a", "8aca2602792aec6f11a67206531fb7d7f0dff59413145e6973c45001d0087b42d11bc645413aeff63a42391a39145a591a92200d560195e53b478584fdae231a"},
	{"abc", "4e2448a4c6f486bb16b6562c73b4020bf3043e3a731bce721ae1b303d97e6d4c7181eebdb6c57e277d0e34957114cbd6c797fc9d95d8b582d225292076d4eef5"},
	{"message digest", "378c84a4126e2dc6e56dcc7458377aac838d00032230f53ce1f5700c0ffb4d3b8421557659ef55c106b4b52ac5a4aaa692ed920052838f3362e86dbd37a8903e"},
	{"abcdefghijklmnopqrstuvwxyz", "f1d754662636ffe92c82ebb9212a484a8d38631ead4238f5442ee13b8054e41b08bf2a9251c30b6a0b8aae86177ab4a6f68f673e7207865d5d9819a3dba4eb3b"},
	{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", "dc37e008cf9ee69bf11f00ed9aba26901dd7c28cdec066cc6af42e40f82f3a1e08eba26629129d8fb7cb57211b9281a65517cc879d7b962142c65f5a7af01467"},
	{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", "466ef18babb0154d25b9d38a6414f5c08784372bccb204d6549c4afadb6014294d5bd8df2a6c44e538cd047b2681a51a2c60481e88c5a20b2c2a80cf3a9a083b"},
	{"abcdbcdecdefdefgefghfghighijhijk", "2a987ea40f917061f5d6f0a0e4644f488a7a5a52deee656207c562f988e95c6916bdc8031bc5be1b7b947639fe050b56939baaa0adff9ae6745b7b181c3be3fd"},
}

func TestISOVectors(t *testing.T) {
	for _, v := range vectors {
		got := Sum([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.out {
			t.Errorf("Whirlpool(%q) =\n %x\nwant\n %s", v.in, got, v.out)
		}
	}
}

func TestSBoxAnchors(t *testing.T) {
	// Known S-box values from the specification's table.
	if SBox(0x00) != 0x18 {
		t.Errorf("S[0x00] = %#x, want 0x18", SBox(0x00))
	}
	if SBox(0x01) != 0x23 {
		t.Errorf("S[0x01] = %#x, want 0x23", SBox(0x01))
	}
	// Permutation check.
	seen := make(map[byte]bool)
	for i := 0; i < 256; i++ {
		v := SBox(byte(i))
		if seen[v] {
			t.Fatalf("S-box not a permutation at %#x", i)
		}
		seen[v] = true
	}
}

func TestPadMessage(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 100} {
		p := PadMessage(make([]byte, n))
		if len(p)%BlockBytes != 0 {
			t.Errorf("pad(%d) = %d bytes, not a block multiple", n, len(p))
		}
		if p[n] != 0x80 {
			t.Errorf("pad(%d): missing 0x80 marker", n)
		}
	}
	// 32 bytes of message leaves no room for 0x80 + length in one block.
	if len(PadMessage(make([]byte, 32))) != 2*BlockBytes {
		t.Error("32-byte message must pad to two blocks")
	}
}

func TestAvalanche(t *testing.T) {
	f := func(msg []byte, pos uint16, bit uint8) bool {
		if len(msg) == 0 {
			return true
		}
		mut := append([]byte(nil), msg...)
		mut[int(pos)%len(mut)] ^= 1 << (bit % 8)
		a, b := Sum(msg), Sum(mut)
		diff := 0
		for i := range a {
			for k := 0; k < 8; k++ {
				if (a[i]^b[i])>>uint(k)&1 != 0 {
					diff++
				}
			}
		}
		// A single-bit flip should change roughly half the 512 output bits.
		return diff > 150 && diff < 362
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSum2KB(b *testing.B) {
	msg := make([]byte, 2048)
	b.SetBytes(2048)
	for i := 0; i < b.N; i++ {
		Sum(msg)
	}
}

// TestEngineBackToBackMessages: the engine hashes consecutive messages
// independently. Each digest readout ends its message, so the next
// message starts from H_0 rather than chaining on its predecessor.
func TestEngineBackToBackMessages(t *testing.T) {
	e := NewEngine()
	for _, msg := range [][]byte{[]byte("first message"), []byte("second"), make([]byte, 100)} {
		padded := PadMessage(msg)
		now := uint64(0)
		for i := 0; i < len(padded); i += 16 {
			var chunk bits.Block
			copy(chunk[:], padded[i:i+16])
			now = e.Start(now, chunk)
		}
		var got []byte
		for i := 0; i < 4; i++ {
			b := e.ReadChunk()
			got = append(got, b[:]...)
		}
		if want := Sum(msg); !bytes.Equal(got, want[:]) {
			t.Fatalf("digest of %q:\n got %x\nwant %x", msg, got, want)
		}
	}
}
