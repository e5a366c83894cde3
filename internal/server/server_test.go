package server

import (
	"bytes"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mccp/internal/arrivals"
	"mccp/internal/cluster"
	"mccp/internal/cryptocore"
	"mccp/internal/qos"
)

// waitGoroutines retries until the goroutine count returns to base (the
// runtime retires exited goroutines asynchronously).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func startLoopback(t *testing.T, cfg Config) (*Server, *Loopback) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	srv.Serve(lb)
	return srv, lb
}

func dialClient(t *testing.T, lb *Loopback) *Client {
	t.Helper()
	nc, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(nc)
}

func TestOpenEncryptDecryptRoundTrip(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{Cluster: cluster.Config{Seed: 7}})
	cl := dialClient(t, lb)

	sess, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Voice})
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 12)
	payload := []byte("the quick brown fox jumps over the lazy dog over and over again!")
	r, err := cl.Encrypt(sess, nonce, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusOK {
		t.Fatalf("encrypt status %v", r.Status)
	}
	if len(r.Out) != len(payload)+16 {
		t.Fatalf("ciphertext %d bytes, want %d", len(r.Out), len(payload)+16)
	}
	if r.Timing.WireCycles == 0 {
		t.Fatal("encrypt reported zero wire cycles")
	}
	ct, tag := r.Out[:len(payload)], r.Out[len(payload):]
	d, err := cl.Decrypt(sess, nonce, nil, ct, tag)
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != StatusOK || !bytes.Equal(d.Out, payload) {
		t.Fatalf("decrypt status %v, plaintext mismatch", d.Status)
	}

	// Corrupt tag -> AuthFail status on the wire.
	tag[0] ^= 0xFF
	d, err = cl.Decrypt(sess, nonce, nil, ct, tag)
	if err != nil {
		t.Fatal(err)
	}
	if d.Status != StatusAuthFail {
		t.Fatalf("corrupted tag status %v, want auth-fail", d.Status)
	}

	st, err := cl.Retrieve()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsOpen != 1 || st.Verdicts[StatusOK] != 2 || st.Verdicts[StatusAuthFail] != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 || st.ClusterCycles == 0 {
		t.Fatalf("stats missing traffic: %+v", st)
	}

	if status, err := cl.CloseSession(sess); err != nil || status != StatusOK {
		t.Fatalf("close: %v %v", status, err)
	}
	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

func TestLifecycleEdges(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{Cluster: cluster.Config{Seed: 3}})
	cl := dialClient(t, lb)

	// OPEN with an unknown algorithm family.
	if _, err := cl.Open(OpenRequest{Family: cryptocore.Family(9), KeyLen: 16, Class: qos.Data}); err == nil {
		t.Fatal("OPEN with unknown family succeeded")
	}
	// OPEN with a bad key length (cluster-side validation).
	if _, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 17, Class: qos.Data}); err == nil {
		t.Fatal("OPEN with bad key length succeeded")
	}
	// Hash sessions are not a wire family.
	if _, err := cl.Open(OpenRequest{Family: cryptocore.FamilyHash, Class: qos.Data}); err == nil {
		t.Fatal("OPEN hash family succeeded")
	}

	sess, err := cl.Open(OpenRequest{Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Class: qos.Voice})
	if err != nil {
		t.Fatal(err)
	}
	// Request on a never-opened session id.
	r, err := cl.Encrypt(sess+100, make([]byte, 13), nil, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusUnknownSess {
		t.Fatalf("unknown session status %v", r.Status)
	}
	// Double CLOSE.
	if status, _ := cl.CloseSession(sess); status != StatusOK {
		t.Fatalf("first close %v", status)
	}
	if status, _ := cl.CloseSession(sess); status != StatusSessClosed {
		t.Fatalf("double close %v, want session-closed", status)
	}
	// Request on a closed session.
	r, err = cl.Encrypt(sess, make([]byte, 13), nil, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusSessClosed {
		t.Fatalf("closed session status %v", r.Status)
	}

	// Malformed frame: a truncated body.
	cl.bw.Write([]byte{0, 0, 0, 3, byte(OpOpen), 1, 2})
	resp, err := cl.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest {
		t.Fatalf("malformed frame status %v", resp.Status)
	}

	// Session limit admission.
	srv2, lb2 := startLoopback(t, Config{Cluster: cluster.Config{Seed: 4}, MaxSessions: 1})
	cl2 := dialClient(t, lb2)
	if _, err := cl2.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Data}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Data}); err == nil {
		t.Fatal("OPEN past MaxSessions succeeded")
	}
	cl2.Close()
	srv2.Close()

	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestIdleReaperMidFlight proves a reaped connection's sessions and
// in-flight (batched but unflushed) operations are reclaimed without
// hanging the server or leaking goroutines.
func TestIdleReaperMidFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{
		Cluster:     cluster.Config{Seed: 11},
		BatchOps:    1024, // large: the encrypt below stays pending
		IdleTimeout: 50 * time.Millisecond,
	})
	cl := dialClient(t, lb)
	sess, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Video})
	if err != nil {
		t.Fatal(err)
	}
	// Leave an encrypt in the batcher's pending window, then go idle.
	if _, err := cl.SendEncrypt(sess, make([]byte, 12), nil, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	// The reaper must close the idle connection; the client observes it
	// as a dead pipe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := cl.ReadResponse(); err != nil {
			if ne, ok := err.(interface{ Timeout() bool }); !ok || !ne.Timeout() {
				break // connection killed by the reaper
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("reaper never closed the idle connection")
		}
	}
	// A fresh connection sees the session count back at zero.
	cl2 := dialClient(t, lb)
	var open uint64 = 99
	for tries := 0; tries < 100; tries++ {
		st, err := cl2.Retrieve()
		if err != nil {
			t.Fatal(err)
		}
		if open = st.SessionsOpen; open == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if open != 0 {
		t.Fatalf("reaped connection left %d sessions open", open)
	}
	cl2.Close()
	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestShutdownWithInFlightBatches closes the server while a client has
// pending batched operations; the shutdown must answer or discard them
// without hanging and return every goroutine.
func TestShutdownWithInFlightBatches(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{
		Cluster:  cluster.Config{Seed: 13},
		BatchOps: 4096, // nothing flushes on its own
	})
	cl := dialClient(t, lb)
	sess, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Voice})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := cl.SendEncrypt(sess, make([]byte, 12), nil, make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Drain responses concurrently until the connection dies: shutdown
	// must not depend on the client reading everything.
	drained := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := cl.ReadResponse(); err != nil {
				drained <- n
				return
			}
			n++
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the batcher ingest the requests
	srv.Close()
	<-drained
	cl.Close()
	waitGoroutines(t, base)
}

// TestSessionScale opens 10^5 concurrent wire sessions over one
// loopback connection (derated under the race detector), runs traffic on
// a sample of them, and verifies shutdown returns the goroutine count to
// baseline — the "millions of users" claim's memory/liveness floor.
func TestSessionScale(t *testing.T) {
	sessions := 100_000
	if raceEnabled {
		sessions = 20_000
	}
	if testing.Short() {
		sessions = 5_000
	}
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{
		Cluster: cluster.Config{Shards: 4, Seed: 17, Router: "least-loaded"},
	})
	cl := dialClient(t, lb)
	specs := make([]OpenRequest, sessions)
	for i := range specs {
		specs[i] = OpenRequest{
			Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16,
			Class: qos.Class(i % qos.NumClasses),
		}
	}
	ids, err := cl.OpenMany(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != sessions {
		t.Fatalf("opened %d sessions, want %d", len(ids), sessions)
	}
	// Traffic on a spread of sessions.
	nonce := make([]byte, 12)
	payload := make([]byte, 128)
	step := sessions / 256
	sent := 0
	for i := 0; i < sessions; i += step {
		if _, err := cl.SendEncrypt(ids[i], nonce, nil, payload); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if _, err := cl.SendFlush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sent+1; i++ {
		if _, err := cl.ReadResponse(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Retrieve()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsOpen != uint64(sessions) {
		t.Fatalf("server reports %d open sessions, want %d", st.SessionsOpen, sessions)
	}
	if st.Verdicts[StatusOK] == 0 {
		t.Fatal("no traffic completed")
	}
	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestLoadRunDeterministic runs the open-loop wire workload twice on a
// single connection and expects bit-identical virtual-time results.
func TestLoadRunDeterministic(t *testing.T) {
	run := func() LoadResult {
		srv, lb := startLoopback(t, Config{
			Cluster: cluster.Config{
				Shards: 2, Seed: 23, Router: "qos-aware", Policy: "qos-priority",
				QueueRequests: true, Shape: true,
				Shaper: qos.Config{Capacity: 8, QueueDepth: 32},
			},
			BatchOps: 64,
		})
		defer srv.Close()
		res, err := RunLoad(func() (nc net.Conn, err error) { return lb.Dial() }, LoadConfig{
			Sessions: 16,
			Mix: []arrivals.ClassProfile{
				{Class: qos.Voice, Share: 0.25, Bytes: 256, Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Deadline: 16000},
				{Class: qos.Background, Share: 0.75, Bytes: 1024, Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16},
			},
			BitsPerCycle: 4.0,
			WindowCycles: 4096,
			Windows:      12,
			Seed:         99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ArrivalDigest != b.ArrivalDigest {
		t.Fatalf("arrival digests differ: %x vs %x", a.ArrivalDigest, b.ArrivalDigest)
	}
	if !reflect.DeepEqual(a.Classes, b.Classes) {
		t.Fatalf("class tallies differ:\n%+v\n%+v", a.Classes, b.Classes)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("server stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Classes[qos.Voice].OK == 0 || a.Classes[qos.Background].OK == 0 {
		t.Fatalf("no completions: %+v", a.Classes)
	}
}

// TestBadNonceAnswersBadRequest is the wire-level regression test for a
// remote crash: an ENCRYPT or DECRYPT on a GCM session with a nonce that is
// not 12 bytes used to panic a shard goroutine in modes.GCMJ0. It must be
// answered StatusBadRequest, and the session must keep serving.
func TestBadNonceAnswersBadRequest(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{Cluster: cluster.Config{Seed: 5}})
	cl := dialClient(t, lb)
	gcm, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 16, Class: qos.Data})
	if err != nil {
		t.Fatal(err)
	}
	ccm, err := cl.Open(OpenRequest{Family: cryptocore.FamilyCCM, KeyLen: 16, TagLen: 8, Class: qos.Data})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("a radio frame of some length")
	for _, c := range []struct {
		sess  uint64
		nonce int
		tag   int
	}{{gcm, 8, 16}, {gcm, 16, 16}, {gcm, 0, 16}, {ccm, 14, 8}, {ccm, 6, 8}} {
		r, err := cl.Encrypt(c.sess, make([]byte, c.nonce), nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != StatusBadRequest {
			t.Fatalf("encrypt with a %d-byte nonce: status %v, want bad-request", c.nonce, r.Status)
		}
		r, err = cl.Decrypt(c.sess, make([]byte, c.nonce), nil, payload, make([]byte, c.tag))
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != StatusBadRequest {
			t.Fatalf("decrypt with a %d-byte nonce: status %v, want bad-request", c.nonce, r.Status)
		}
	}
	r, err := cl.Encrypt(gcm, make([]byte, 12), nil, payload)
	if err != nil || r.Status != StatusOK {
		t.Fatalf("well-formed encrypt after bad nonces: %v %v", r.Status, err)
	}
	st, err := cl.Retrieve()
	if err != nil {
		t.Fatal(err)
	}
	if st.Verdicts[StatusBadRequest] != 10 || st.Verdicts[StatusOK] != 1 {
		t.Fatalf("verdicts %v, want 10 bad-request and 1 ok", st.Verdicts)
	}
	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestBadTagLenAnswersBadRequest is the loopback regression test for a
// remote process kill: OPEN accepted any tag length, and one ENCRYPT on
// a GCM session opened with a 17-byte tag then panicked the shard
// goroutine assembling the output. OPEN must answer bad-request for
// every length the mode cannot produce, and the server keep serving.
func TestBadTagLenAnswersBadRequest(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, lb := startLoopback(t, Config{Cluster: cluster.Config{Seed: 5}})
	cl := dialClient(t, lb)
	payload := make([]byte, 40)
	for _, c := range []struct {
		family cryptocore.Family
		tag    int
		nonce  int
	}{
		{cryptocore.FamilyGCM, 17, 12}, {cryptocore.FamilyGCM, 255, 12}, {cryptocore.FamilyGCM, 0, 12},
		{cryptocore.FamilyGCM, 3, 12}, {cryptocore.FamilyGCM, 10, 12},
		{cryptocore.FamilyCCM, 18, 13}, {cryptocore.FamilyCCM, 7, 13}, {cryptocore.FamilyCCM, 2, 13},
	} {
		if _, err := cl.SendOpen(OpenRequest{Family: c.family, KeyLen: 16, TagLen: c.tag, Class: qos.Data}); err != nil {
			t.Fatal(err)
		}
		r, err := cl.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if r.Status == StatusOK {
			// The session opened: one ENCRYPT on it is the reproducer.
			cl.Encrypt(r.Session, make([]byte, c.nonce), nil, payload)
			t.Fatalf("%v OPEN with a %d-byte tag accepted", c.family, c.tag)
		}
		if r.Status != StatusBadRequest {
			t.Fatalf("%v OPEN with a %d-byte tag: status %v, want bad-request", c.family, c.tag, r.Status)
		}
	}
	gcm, err := cl.Open(OpenRequest{Family: cryptocore.FamilyGCM, KeyLen: 16, TagLen: 8, Class: qos.Data})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.Encrypt(gcm, make([]byte, 12), nil, payload)
	if err != nil || r.Status != StatusOK || len(r.Out) != len(payload)+8 {
		t.Fatalf("well-formed encrypt after bad OPENs: %v %v, %d bytes", r.Status, err, len(r.Out))
	}
	cl.Close()
	srv.Close()
	waitGoroutines(t, base)
}
