package server

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"reflect"
	"strings"
	"testing"

	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
)

// smallServer is the one-shard, two-core loopback server the frame tests
// run against: two leaked core claims are enough to disable it.
func smallServer(t testing.TB) (*Server, *Client) {
	t.Helper()
	srv, err := New(Config{Cluster: cluster.Config{Shards: 1, CoresPerShard: 2, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	srv.Serve(lb)
	nc, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return srv, NewClient(nc)
}

// sessionKey reads a wire session's key from its cluster session. The
// key never crosses the wire, so the oracle check reaches into the
// session's unexported key field. Call it only while the server is idle.
func sessionKey(srv *Server, id uint64) []byte {
	v := reflect.ValueOf(srv.sessions[id].ses).Elem()
	key := make([]byte, v.FieldByName("keyLen").Int())
	for i := range key {
		key[i] = byte(v.FieldByName("key").Index(i).Uint())
	}
	return key
}

// checkServing opens a fresh GCM session and requires a well-formed
// 64-byte ENCRYPT on it to answer StatusOK with the crypto/cipher
// reference bytes.
func checkServing(t testing.TB, srv *Server, cl *Client) {
	t.Helper()
	id, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Data})
	if err != nil {
		t.Fatal(err)
	}
	nonce, payload := bytes.Repeat([]byte{7}, 12), bytes.Repeat([]byte{9}, 64)
	r, err := cl.Encrypt(id, nonce, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusOK {
		t.Fatalf("well-formed GCM ENCRYPT on a fresh session: status %v, want ok", r.Status)
	}
	blk, err := stdaes.NewCipher(sessionKey(srv, id))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := cipher.NewGCM(blk)
	if want := ref.Seal(nil, nonce, payload, nil); !bytes.Equal(r.Out, want) {
		t.Fatalf("well-formed GCM ENCRYPT:\n got %x\nwant %x", r.Out, want)
	}
}

// TestBadFrameAnswersBadRequest is the loopback regression test for a
// remote denial of service: a request the radio could not frame (AAD
// beyond the packet FIFO, a DECRYPT tag whose length is not the suite's)
// failed after the device had claimed its cores, and never released
// them. Two such requests left the shard answering every later ENCRYPT
// with rejected. Each must answer bad-request and leave the shard
// serving.
func TestBadFrameAnswersBadRequest(t *testing.T) {
	for _, c := range []struct {
		name    string
		family  cryptocore.Family
		tagLen  int
		decrypt bool
		nonce   int
		aad     int
		tag     int
	}{
		{"GCM ENCRYPT, 2049-byte AAD", cryptocore.FamilyGCM, 16, false, 12, 2049, 0},
		{"GCM DECRYPT, 2049-byte AAD", cryptocore.FamilyGCM, 16, true, 12, 2049, 16},
		{"CCM ENCRYPT, 2049-byte AAD", cryptocore.FamilyCCM, 8, false, 13, 2049, 0},
		{"CCM DECRYPT, 2049-byte AAD", cryptocore.FamilyCCM, 8, true, 13, 2049, 8},
		{"CCM DECRYPT, 16-byte tag on a tag-8 session", cryptocore.FamilyCCM, 8, true, 13, 0, 16},
		{"GCM DECRYPT, 20-byte tag", cryptocore.FamilyGCM, 16, true, 12, 0, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, cl := smallServer(t)
			defer srv.Close()
			defer cl.Close()
			id, err := cl.Open(OpenRequest{Family: c.family, KeyLen: 16, TagLen: c.tagLen, Class: qos.Data})
			if err != nil {
				t.Fatal(err)
			}
			nonce, aad, payload := make([]byte, c.nonce), make([]byte, c.aad), make([]byte, 64)
			for i := 0; i < 2; i++ {
				var r Response
				if c.decrypt {
					r, err = cl.Decrypt(id, nonce, aad, payload, make([]byte, c.tag))
				} else {
					r, err = cl.Encrypt(id, nonce, aad, payload)
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.Status != StatusBadRequest {
					t.Fatalf("request %d: status %v, want bad-request", i, r.Status)
				}
			}
			checkServing(t, srv, cl)
		})
	}
}

// FuzzWireSession drives a short OPEN/ENCRYPT/DECRYPT sequence, decoded
// from the fuzz input, against a one-shard two-core loopback server:
// fuzzed family, tag length, nonce, AAD, payload and DECRYPT tag
// lengths. Every request must be answered with a defined status and
// nothing may panic; afterwards a well-formed GCM ENCRYPT on a fresh
// session must be served correctly, so no request may leave cores
// claimed or corrupt the shard.
//
// Input layout, one step after another (missing bytes read as zero):
// a step byte selects OPEN (0), ENCRYPT (1) or DECRYPT (2) modulo 3. OPEN
// reads a family byte (GCM, CCM, CTR, CBC-MAC modulo 4) and a tag-length
// byte. ENCRYPT and DECRYPT, on the last session opened, read a
// nonce-length byte, a big-endian u16 AAD length and a u16 payload length
// (each modulo 2200); DECRYPT then reads a tag-length byte.
func FuzzWireSession(f *testing.F) {
	// testdata/fuzz/FuzzWireSession holds the leak reproducers; this seed
	// is a CBC-MAC message of a partial block.
	f.Add([]byte{0, 3, 0, 1, 0, 0, 0, 0, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		u16 := func() int { return next()<<8 | next() }
		families := []cryptocore.Family{cryptocore.FamilyGCM, cryptocore.FamilyCCM, cryptocore.FamilyCTR, cryptocore.FamilyCBCMAC}

		srv, cl := smallServer(t)
		defer srv.Close()
		defer cl.Close()
		var sess uint64
		for step := 0; step < 8 && len(data) > 0; step++ {
			var r Response
			var err error
			switch kind := next() % 3; kind {
			case 0:
				family, tag := families[next()%len(families)], next()
				var id uint64
				if id, err = cl.SendOpen(OpenRequest{Family: family, KeyLen: 16, TagLen: tag, Class: qos.Data}); err == nil {
					r, err = cl.ReadResponse()
				}
				if err == nil && r.Status == StatusOK && r.ReqID == id {
					sess = r.Session
				}
			default:
				nonce, aad, payload := make([]byte, next()%20), make([]byte, u16()%2200), make([]byte, u16()%2200)
				if kind == 1 {
					r, err = cl.Encrypt(sess, nonce, aad, payload)
				} else {
					r, err = cl.Decrypt(sess, nonce, aad, payload, make([]byte, next()%24))
				}
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if s := r.Status.String(); strings.HasPrefix(s, "status(") {
				t.Fatalf("step %d: undefined status %s", step, s)
			}
		}
		checkServing(t, srv, cl)
	})
}
