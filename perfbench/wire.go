package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"mccp"
	"mccp/internal/cluster"
	"mccp/internal/harness"
	"mccp/internal/qos"
	"mccp/internal/server"
)

// The wire workloads run an in-process server with cmd/mccpserver's
// defaults on 127.0.0.1 TCP and drive it over wireConns connections, each
// with one sender and one reader goroutine. server.Client is not safe for
// concurrent use, so each connection has two Clients over the same
// net.Conn: tx only sends and flushes, rx only reads.

const (
	wireConns    = 2
	wireSessions = 32 // per connection
	// wireWarmup runs the load before the measured window opens.
	wireWarmup = time.Second
	// wireIOTimeout bounds every response read, so a wedged server fails
	// the run instead of hanging it.
	wireIOTimeout = 20 * time.Second
)

// serverConfig mirrors cmd/mccpserver's defaults: 4 shards x 4 cores,
// qos-aware router, qos-priority policy, shaper capacity 4 and depth 16,
// batch 64, flush every 200 us.
func serverConfig(seed uint64) server.Config {
	return server.Config{
		Cluster: cluster.Config{
			Shards:        4,
			CoresPerShard: 4,
			Router:        cluster.RouterQoSAware,
			Policy:        "qos-priority",
			QueueRequests: true,
			Shape:         true,
			Seed:          seed,
			Shaper:        qos.Config{Capacity: 4, QueueDepth: 16},
		},
		BatchOps:      64,
		FlushInterval: 200 * time.Microsecond,
	}
}

// wireRig is a running server with its client connections.
type wireRig struct {
	srv   *server.Server
	conns []*wireConn
}

// wireSlot is one session of a connection. id and the fields after it
// are guarded by the connection's mutex.
type wireSlot struct {
	spec     server.OpenRequest
	id       uint64
	open     bool
	gen      uint32 // bumped at every reopen: replays never cross keys
	inflight int
	replay   []sealed // wire-small: recent ciphertexts of this generation
}

// sealed is an encrypt the run produced: its inputs and output.
type sealed struct {
	slot      int
	nonce, pt []byte
	out       []byte // ciphertext || tag
	tagLen    int
}

// pending is a request awaiting its response.
type pending struct {
	op        server.Op
	slot      int
	gen       uint32
	due, sent time.Time
	nonce, pt []byte
	seq       uint64
	root      uint32 // trace span id, 0 if not sampled
}

type wireConn struct {
	nc     net.Conn
	tx, rx *server.Client

	mu      sync.Mutex
	slots   []*wireSlot
	pending map[uint64]*pending
}

func newWireRig(seed uint64, specs [][]server.OpenRequest, tr *tracer) (*wireRig, error) {
	t0 := tr.now()
	srv, err := server.New(serverConfig(seed))
	tr.record("server.New", 0, 0, 0, t0, tr.now())
	if err != nil {
		return nil, err
	}
	r := &wireRig{srv: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	srv.Serve(ln)
	for _, sp := range specs {
		t0 = tr.now()
		nc, err := net.Dial("tcp", ln.Addr().String())
		tr.record("Dial", 0, 0, 0, t0, tr.now())
		if err != nil {
			r.close()
			return nil, err
		}
		c := &wireConn{nc: nc, tx: server.NewClient(nc), rx: server.NewClient(nc), pending: map[uint64]*pending{}}
		c.rx.SetIOTimeout(wireIOTimeout)
		r.conns = append(r.conns, c)
		t0 = tr.now()
		// Sessions open on tx, whose request ids then continue unbroken:
		// the server deduplicates OPEN and CLOSE by request id per
		// connection. Nothing is in flight afterwards, so rx takes over
		// reading from an empty stream.
		ids, err := c.tx.OpenMany(sp)
		tr.record("OPEN", 0, 0, 0, t0, tr.now())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("open sessions: %w", err)
		}
		for i, id := range ids {
			c.slots = append(c.slots, &wireSlot{spec: sp[i], id: id, open: true})
		}
	}
	return r, nil
}

// close disconnects the clients and stops the server, waiting for all of
// its goroutines.
func (r *wireRig) close() {
	for _, c := range r.conns {
		c.nc.Close()
	}
	r.srv.Close()
}

// setupWire builds the rig reps times (timing each), keeping the last.
func setupWire(cfg *config, specs [][]server.OpenRequest, m *measurement) (*wireRig, error) {
	var rig *wireRig
	for i := 0; i < cfg.setupReps; i++ {
		if rig != nil {
			rig.close()
		}
		debug.FreeOSMemory() // each set-up starts from a collected, returned heap, as in a fresh process
		began := time.Now()
		r, err := newWireRig(cfg.seed, specs, cfg.tr)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(began).Seconds())
		rig = r
	}
	return rig, nil
}

// wireStats accumulates one connection's measured requests; the reader
// goroutine owns it.
type wireStats struct {
	ws                        *windowSet
	byDue                     bool // window by due time (open loop) or completion time
	queue, service, transport reservoir
	late                      reservoir
	ops, shed                 uint64
	attempted, failed         uint64 // every checked operation, warm-up too
}

// check tallies one checked operation.
func (s *wireStats) check(ok bool) {
	s.attempted++
	if !ok {
		s.failed++
	}
}

func (s *wireStats) add(p *pending, r *server.Response, done time.Time, bytesDone int) {
	at := done
	if s.byDue {
		at = p.due
	}
	w := s.ws.at(at)
	if w == nil {
		return
	}
	w.ops++
	w.bits += uint64(bytesDone) * 8
	w.lat.add(float64(done.Sub(p.due).Nanoseconds()) / 1e6)
	s.ops++
	if p.op == server.OpEncrypt || p.op == server.OpDecrypt {
		q, sv := float64(r.Timing.QueueNs)/1e3, float64(r.Timing.ServiceNs)/1e3
		s.queue.add(q)
		s.service.add(sv)
		s.transport.add(float64(done.Sub(p.sent).Nanoseconds())/1e3 - q - sv)
		switch r.Status {
		case server.StatusShed, server.StatusExpired, server.StatusAged:
			s.shed++
		}
	}
	if s.byDue {
		s.late.add(float64(p.sent.Sub(p.due).Nanoseconds()) / 1e6)
	}
}

// send writes and flushes one request and records it as pending. The
// caller holds no lock.
func (c *wireConn) send(p *pending, tr *tracer, send func() (uint64, error)) error {
	t0 := tr.now()
	p.sent = time.Now()
	if tr.sampled(p.seq) {
		p.root = tr.newID()
	}
	c.mu.Lock()
	id, err := send()
	if err == nil {
		c.pending[id] = p
	}
	c.mu.Unlock()
	if err == nil {
		err = c.tx.Flush()
	}
	if p.root != 0 {
		tr.record("Client.Send+Flush", 0, p.root, p.seq, t0, tr.now())
	}
	return err
}

// finish sends the FLUSH sentinel that tells the reader no more requests
// follow.
func (c *wireConn) finish() (uint64, error) {
	c.mu.Lock()
	id, err := c.tx.SendFlush()
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return id, c.tx.Flush()
}

// readLoop reads responses until the sentinel's has arrived and nothing
// is pending, handing each to handle with its pending record.
func (c *wireConn) readLoop(sentinel <-chan uint64, tr *tracer, handle func(p *pending, r *server.Response, done time.Time)) error {
	var stop uint64
	sawStop := false
	for {
		if sawStop {
			c.mu.Lock()
			n := len(c.pending)
			c.mu.Unlock()
			if n == 0 {
				return nil
			}
		}
		t0 := tr.now()
		r, err := c.rx.ReadResponse()
		done := time.Now()
		if err != nil {
			return err
		}
		if stop == 0 {
			select {
			case stop = <-sentinel:
			default:
			}
		}
		if r.Op == server.OpFlush {
			if stop == 0 {
				stop = <-sentinel
			}
			if r.ReqID == stop {
				sawStop = true
			}
			continue
		}
		c.mu.Lock()
		p := c.pending[r.ReqID]
		delete(c.pending, r.ReqID)
		c.mu.Unlock()
		if p == nil {
			return fmt.Errorf("response to unknown request %d (%s)", r.ReqID, r.Op)
		}
		if p.root != 0 {
			tr.record("Client.ReadResponse", 0, p.root, p.seq, t0, tr.now())
			tr.record("request "+p.op.String(), p.root, 0, p.seq, tr.at(p.sent), tr.at(done))
		}
		handle(p, &r, done)
	}
}

// corrupt flips one bit of every corruptEvery-th output (the checks' own
// test).
func corrupt(out []byte, seq, every uint64) {
	if every > 0 && seq%every == 0 && len(out) > 0 {
		out[0] ^= 0x80
	}
}

// wireLayers fills the counter-derived per-layer metrics shared by both
// wire workloads.
func wireLayers(m *measurement, stats []*wireStats, snap0, snap1 cluster.Metrics) {
	var q, sv, tp reservoir
	var shed uint64
	for _, s := range stats {
		q.merge(&s.queue)
		sv.merge(&s.service)
		tp.merge(&s.transport)
		m.late.merge(&s.late)
		shed += s.shed
	}
	for name, r := range map[string]*reservoir{"server.queue_us": &q, "server.service_us": &sv, "server.transport_us": &tp} {
		v := r.sorted()
		m.layers[name+".p50"] = percentile(v, 50)
		m.layers[name+".p99"] = percentile(v, 99)
	}
	dataOps := q.seen
	m.layers["qos.shed_frac"] = ratio(float64(shed), float64(dataOps))
	var kx0, kx1 uint64
	for _, s := range snap0.Shards {
		kx0 += s.KeyExpansions
	}
	for _, s := range snap1.Shards {
		kx1 += s.KeyExpansions
	}
	m.layers["keysched.expansions_per_kop"] = ratio(float64(kx1-kx0)*1000, float64(m.ops))
	m.layers["cluster.ops_per_batch"] = ratio(float64(snap1.Packets-snap0.Packets), float64(snap1.Batches-snap0.Batches))
}

// verdictNote is the RETRIEVE_DATA verdict split, read on an idle
// connection after the run.
func verdictNote(c *wireConn) string {
	st, err := c.rx.Retrieve()
	if err != nil {
		return fmt.Sprintf("verdicts: retrieve failed: %v", err)
	}
	var b bytes.Buffer
	b.WriteString("verdicts")
	for i, n := range st.Verdicts {
		if n > 0 {
			fmt.Fprintf(&b, " %s=%d", server.Status(i), n)
		}
	}
	return b.String()
}

// mixProfile is one class of the E13/E14 mix with its per-request
// probability: harness.LoadMix shares are of offered bits, so a class's
// request share is its bit share over its packet size.
type mixProfile struct {
	spec  server.OpenRequest
	bytes int
	prob  float64
}

func mixProfiles() []mixProfile {
	var ps []mixProfile
	var total float64
	for _, c := range harness.LoadMix {
		p := mixProfile{
			spec: server.OpenRequest{Family: c.Family, KeyLen: c.KeyLen, TagLen: c.TagLen,
				Class: c.Class, Deadline: c.Deadline},
			bytes: c.Bytes,
			prob:  c.Share / float64(c.Bytes),
		}
		total += p.prob
		ps = append(ps, p)
	}
	for i := range ps {
		ps[i].prob /= total
	}
	return ps
}

const (
	// mixRate is wire-mix's offered load, requests per second across all
	// connections: about a quarter of where this mix saturates the
	// 4-shard server on a 2-vCPU host.
	mixRate = 2000
	// mixSample is how many recent encrypts per connection wire-mix
	// decrypts after the run to check their outputs.
	mixSample = 128
	// payloadPool is how many distinct random payloads each size class
	// draws from.
	payloadPool = 16
)

func nonceLen(spec server.OpenRequest) int {
	if spec.Family == mccp.CCM {
		return 13
	}
	return 12
}

// runWireMix is the open-loop workload: Poisson arrivals at mixRate over
// wireConns connections and wireConns*wireSessions sessions with the
// E13/E14 class mix, each request timed from its due time.
func runWireMix(cfg *config) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	profiles := mixProfiles()
	specs := make([][]server.OpenRequest, wireConns)
	for c := range specs {
		for i := 0; i < wireSessions; i++ {
			specs[c] = append(specs[c], profiles[i%len(profiles)].spec)
		}
	}
	rig, err := setupWire(cfg, specs, m)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	// Payloads are drawn before the run: payloadPool per class.
	rng := rand.New(rand.NewPCG(cfg.seed, 0x31E))
	pool := make([][][]byte, len(profiles))
	for i, p := range profiles {
		for k := 0; k < payloadPool; k++ {
			b := make([]byte, p.bytes)
			fillRandom(rng, b)
			pool[i] = append(pool[i], b)
		}
	}

	length := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	mStart := t0.Add(wireWarmup)
	mEnd := mStart.Add(length)
	stats := make([]*wireStats, len(rig.conns))
	samples := make([][]sealed, len(rig.conns))
	errs := make([]error, 2*len(rig.conns))
	snap0, measuring := openWindow(rig, mStart, cfg.meter)
	steal := newWindowSet(mStart, length)
	waitSteal := steal.watchSteal(true)
	var wg sync.WaitGroup
	for ci, c := range rig.conns {
		ci, c := ci, c
		stats[ci] = &wireStats{ws: newWindowSet(mStart, length), byDue: true}
		sentinel := make(chan uint64, 1)
		crng := rand.New(rand.NewPCG(cfg.seed, uint64(ci)+1))
		wg.Add(2)
		go func() { // sender
			defer wg.Done()
			defer close(sentinel)
			due := t0
			var seq uint64
			for {
				due = due.Add(time.Duration(crng.ExpFloat64() / (mixRate / float64(len(rig.conns))) * 1e9))
				if !due.Before(mEnd) {
					break
				}
				// Pick the class by request share, then one of its sessions.
				u, cls := crng.Float64(), 0
				for cls < len(profiles)-1 && u >= profiles[cls].prob {
					u -= profiles[cls].prob
					cls++
				}
				slot := cls + len(profiles)*crng.IntN(wireSessions/len(profiles))
				spec := c.slots[slot].spec
				nonce := make([]byte, nonceLen(spec))
				fillRandom(crng, nonce)
				pt := pool[cls][crng.IntN(payloadPool)]
				seq++
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				p := &pending{op: server.OpEncrypt, slot: slot, due: due, nonce: nonce, pt: pt, seq: seq}
				sess := c.slots[slot].id
				if err := c.send(p, cfg.tr, func() (uint64, error) { return c.tx.SendEncrypt(sess, nonce, nil, pt) }); err != nil {
					errs[2*ci] = err
					return
				}
			}
			id, err := c.finish()
			if err != nil {
				errs[2*ci] = err
				return
			}
			sentinel <- id
		}()
		go func() { // reader
			defer wg.Done()
			st := stats[ci]
			errs[2*ci+1] = c.readLoop(sentinel, cfg.tr, func(p *pending, r *server.Response, done time.Time) {
				st.check(r.Status == server.StatusOK && len(r.Out) == len(p.pt)+c.slots[p.slot].spec.TagLen)
				corrupt(r.Out, p.seq, cfg.corruptEvery)
				if r.Status == server.StatusOK {
					s := sealed{slot: p.slot, nonce: p.nonce, pt: p.pt, out: r.Out, tagLen: c.slots[p.slot].spec.TagLen}
					if len(samples[ci]) < mixSample {
						samples[ci] = append(samples[ci], s)
					} else {
						samples[ci][p.seq%mixSample] = s
					}
				}
				st.add(p, r, done, len(p.pt))
			})
		}()
	}
	wg.Wait()
	<-measuring
	cfg.meter.end()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	snap1 := rig.srv.Cluster().Snapshot()

	// Checks: decrypt every sampled encrypt and compare with its plaintext.
	for ci, c := range rig.conns {
		for _, s := range samples[ci] {
			ok, err := c.verify(s)
			if err != nil {
				return nil, err
			}
			m.attempted++
			if !ok {
				m.failed++
			}
		}
	}
	m.notes = append(m.notes, verdictNote(rig.conns[0]))
	waitSteal()
	m.windows = steal.w
	for _, s := range stats {
		m.windows = mergeWindows(m.windows, s.ws.w)
		m.ops += s.ops
		m.attempted += s.attempted
		m.failed += s.failed
	}
	m.allocObjs = cfg.meter.rt1.allocObjs - cfg.meter.rt0.allocObjs
	m.allocBytes = cfg.meter.rt1.allocBytes - cfg.meter.rt0.allocBytes
	wireLayers(m, stats, *snap0, snap1)
	return m, nil
}

// openWindow opens the measured window at mStart, whatever the load is
// doing then: it snapshots the cluster and starts the meter. The snapshot
// may be read once the returned channel is closed.
func openWindow(rig *wireRig, mStart time.Time, meter *runMeter) (*cluster.Metrics, <-chan struct{}) {
	snap := new(cluster.Metrics)
	done := make(chan struct{})
	go func() {
		time.Sleep(time.Until(mStart))
		*snap = rig.srv.Cluster().Snapshot()
		meter.begin()
		close(done)
	}()
	return snap, done
}

// verify decrypts one sealed packet lock-step on an idle connection.
func (c *wireConn) verify(s sealed) (bool, error) {
	ct, tag := s.out[:len(s.out)-s.tagLen], s.out[len(s.out)-s.tagLen:]
	r, err := c.rx.Decrypt(c.slots[s.slot].id, s.nonce, nil, ct, tag)
	if err != nil {
		return false, err
	}
	return r.Status == server.StatusOK && bytes.Equal(r.Out, s.pt), nil
}

// mergeWindows adds b's operations into a (same layout).
func mergeWindows(a, b []window) []window {
	for i := range a {
		a[i].ops += b[i].ops
		a[i].bits += b[i].bits
		a[i].lat.merge(&b[i].lat)
	}
	return a
}

const (
	smallWindow = 16  // requests outstanding per connection
	smallChurn  = 256 // requests between session reopens, per connection
	smallMinLen = 64
	smallMaxLen = 256
	smallReplay = 8 // ciphertexts kept per session for decrypt replays
)

// runWireSmall is the closed-loop workload: smallWindow requests
// outstanding per connection, 64-256 B payloads on equal numbers of
// CCM-128 and GCM-128 sessions, encrypts and decrypts in equal shares
// (each decrypt replays a ciphertext the run produced), and one session
// per connection closed and reopened every smallChurn requests.
func runWireSmall(cfg *config) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	ccm := server.OpenRequest{Family: mccp.CCM, KeyLen: 16, TagLen: 8, Class: qos.Voice}
	gcm := server.OpenRequest{Family: mccp.GCM, KeyLen: 16, TagLen: 16, Class: qos.Data}
	specs := make([][]server.OpenRequest, wireConns)
	for c := range specs {
		for i := 0; i < wireSessions; i++ {
			s := gcm
			if i%2 == 0 {
				s = ccm
			}
			specs[c] = append(specs[c], s)
		}
	}
	rig, err := setupWire(cfg, specs, m)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	rng := rand.New(rand.NewPCG(cfg.seed, 0x5A11))
	var pool [][]byte
	for k := 0; k < payloadPool; k++ {
		b := make([]byte, smallMaxLen)
		fillRandom(rng, b)
		pool = append(pool, b)
	}

	length := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	mStart := t0.Add(wireWarmup)
	mEnd := mStart.Add(length)
	stats := make([]*wireStats, len(rig.conns))
	errs := make([]error, 2*len(rig.conns))
	snap0, measuring := openWindow(rig, mStart, cfg.meter)
	steal := newWindowSet(mStart, length)
	waitSteal := steal.watchSteal(true)
	var wg sync.WaitGroup
	for ci, c := range rig.conns {
		ci, c := ci, c
		stats[ci] = &wireStats{ws: newWindowSet(mStart, length)}
		sentinel := make(chan uint64, 1)
		tokens := make(chan struct{}, smallWindow) // a semaphore: the outstanding window
		for i := 0; i < smallWindow; i++ {
			tokens <- struct{}{}
		}
		crng := rand.New(rand.NewPCG(cfg.seed, uint64(ci)+1))
		wg.Add(2)
		go func() { // sender
			defer wg.Done()
			defer close(sentinel)
			var seq uint64
			churn := 0
			for {
				<-tokens
				if !time.Now().Before(mEnd) {
					break
				}
				seq++
				var err error
				if seq%smallChurn == 0 {
					err = c.reopen(&churn, &seq, tokens, cfg.tr)
				} else {
					err = c.sendSmall(crng, pool, seq, cfg.tr)
				}
				if err != nil {
					errs[2*ci] = err
					return
				}
			}
			id, err := c.finish()
			if err != nil {
				errs[2*ci] = err
				return
			}
			sentinel <- id
		}()
		go func() { // reader
			defer wg.Done()
			st := stats[ci]
			errs[2*ci+1] = c.readLoop(sentinel, cfg.tr, func(p *pending, r *server.Response, done time.Time) {
				corrupt(r.Out, p.seq, cfg.corruptEvery)
				ok, n := c.settle(p, r)
				st.check(ok)
				st.add(p, r, done, n)
				tokens <- struct{}{}
			})
		}()
	}
	wg.Wait()
	<-measuring
	cfg.meter.end()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	snap1 := rig.srv.Cluster().Snapshot()
	m.notes = append(m.notes, verdictNote(rig.conns[0]))
	waitSteal()
	m.windows = steal.w
	for _, s := range stats {
		m.windows = mergeWindows(m.windows, s.ws.w)
		m.ops += s.ops
		m.attempted += s.attempted
		m.failed += s.failed
	}
	m.allocObjs = cfg.meter.rt1.allocObjs - cfg.meter.rt0.allocObjs
	m.allocBytes = cfg.meter.rt1.allocBytes - cfg.meter.rt0.allocBytes
	wireLayers(m, stats, *snap0, snap1)
	return m, nil
}

// sendSmall sends one ENCRYPT or DECRYPT on a random open session: a
// decrypt when the coin says so and the session has a ciphertext to
// replay, an encrypt otherwise.
func (c *wireConn) sendSmall(rng *rand.Rand, pool [][]byte, seq uint64, tr *tracer) error {
	decrypt := rng.IntN(2) == 0
	pick := rng.IntN(len(c.slots))
	replayPick := rng.Uint64()
	n := smallMinLen + rng.IntN(smallMaxLen-smallMinLen+1)
	pt := pool[rng.IntN(len(pool))][:n]
	c.mu.Lock()
	slot := -1
	for i := range c.slots {
		if s := c.slots[(pick+i)%len(c.slots)]; s.open {
			slot = (pick + i) % len(c.slots)
			break
		}
	}
	if slot < 0 {
		c.mu.Unlock()
		return errors.New("no open session")
	}
	s := c.slots[slot]
	s.inflight++
	sess, gen, spec := s.id, s.gen, s.spec
	var replay *sealed
	if decrypt && len(s.replay) > 0 {
		e := s.replay[replayPick%uint64(len(s.replay))]
		replay = &e
	}
	c.mu.Unlock()

	now := time.Now()
	if replay != nil {
		ct, tag := replay.out[:len(replay.out)-replay.tagLen], replay.out[len(replay.out)-replay.tagLen:]
		p := &pending{op: server.OpDecrypt, slot: slot, gen: gen, due: now, nonce: replay.nonce, pt: replay.pt, seq: seq}
		return c.send(p, tr, func() (uint64, error) { return c.tx.SendDecrypt(sess, replay.nonce, nil, ct, tag) })
	}
	nonce := make([]byte, nonceLen(spec))
	fillRandom(rng, nonce)
	p := &pending{op: server.OpEncrypt, slot: slot, gen: gen, due: now, nonce: nonce, pt: pt, seq: seq}
	return c.send(p, tr, func() (uint64, error) { return c.tx.SendEncrypt(sess, nonce, nil, pt) })
}

// reopen closes and reopens the next idle session (no requests in
// flight), pipelining CLOSE and OPEN; the session takes no traffic until
// the reader has the OPEN's answer. It uses the token the caller holds
// for the CLOSE and takes a second for the OPEN.
func (c *wireConn) reopen(cursor *int, seq *uint64, tokens chan struct{}, tr *tracer) error {
	c.mu.Lock()
	slot := -1
	for i := range c.slots {
		k := (*cursor + i) % len(c.slots)
		if s := c.slots[k]; s.open && s.inflight == 0 {
			slot = k
			break
		}
	}
	if slot < 0 { // every session busy: skip this reopen
		c.mu.Unlock()
		tokens <- struct{}{}
		return nil
	}
	*cursor = slot + 1
	s := c.slots[slot]
	s.open = false
	sess, spec := s.id, s.spec
	c.mu.Unlock()

	now := time.Now()
	cl := &pending{op: server.OpClose, slot: slot, due: now, seq: *seq}
	if err := c.send(cl, tr, func() (uint64, error) { return c.tx.SendClose(sess) }); err != nil {
		return err
	}
	<-tokens
	*seq++
	op := &pending{op: server.OpOpen, slot: slot, due: time.Now(), seq: *seq}
	return c.send(op, tr, func() (uint64, error) { return c.tx.SendOpen(spec) })
}

// settle checks one wire-small response against what was sent and
// updates the session state. It returns whether the operation succeeded
// with the right output, and the payload bytes it completed.
func (c *wireConn) settle(p *pending, r *server.Response) (bool, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.slots[p.slot]
	switch p.op {
	case server.OpOpen:
		if r.Status != server.StatusOK {
			return false, 0
		}
		s.id, s.open, s.replay = r.Session, true, s.replay[:0]
		s.gen++
		return true, 0
	case server.OpClose:
		return r.Status == server.StatusOK, 0
	}
	s.inflight--
	if p.op == server.OpDecrypt {
		return r.Status == server.StatusOK && bytes.Equal(r.Out, p.pt), len(p.pt)
	}
	ok := r.Status == server.StatusOK && len(r.Out) == len(p.pt)+s.spec.TagLen
	if ok && p.gen == s.gen {
		e := sealed{slot: p.slot, nonce: p.nonce, pt: p.pt, out: r.Out, tagLen: s.spec.TagLen}
		if len(s.replay) < smallReplay {
			s.replay = append(s.replay, e)
		} else {
			s.replay[p.seq%smallReplay] = e
		}
	}
	return ok, len(p.pt)
}
