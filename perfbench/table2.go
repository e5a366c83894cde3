package main

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"mccp"
	"mccp/internal/bits"
	"mccp/internal/modes"
	"mccp/internal/sim"
)

// The table2 workload: one Platform (4 cores, queueing on) driven
// closed-loop by a single caller through the six Table II mappings on
// AES-128 with 2 KB encrypts, the engine stepped one event at a time.

// t2cell is one Table II mapping: streams packets are kept in flight on
// one channel; split selects the two-core CCM mapping.
type t2cell struct {
	name    string
	family  mccp.Family
	streams int
	split   bool
}

var t2cells = []t2cell{
	{"gcm-1core", mccp.GCM, 1, false},
	{"gcm-4x1", mccp.GCM, 4, false},
	{"ccm-1core", mccp.CCM, 1, false},
	{"ccm-2core", mccp.CCM, 1, true},
	{"ccm-4x1", mccp.CCM, 4, false},
	{"ccm-2x2", mccp.CCM, 2, true},
}

const (
	t2PacketBytes = 2048
	t2TagLen      = 16
	t2KeyLen      = 16
	// t2Waves is how many times each cell fills its streams per round, so
	// a cell runs streams x t2Waves packets. Equal waves weight the
	// multi-stream mappings by their streams; equal packet counts would put
	// half the packets on each side of a wide gap in latency between the
	// 1-stream and the multi-stream mappings, and the median in the gap.
	t2Waves = 4
	// t2PinSeed seeds the canonical pass whose results are pinned.
	t2PinSeed = 0x7AB1E2
)

// table2Pins are values the simulated hardware must reproduce exactly; a
// change that alters modeled timing or output fails the run.
type table2Pins struct {
	// coldCycles and coldDigest are each cell's virtual-cycle total and
	// output digest (SHA-256 prefix over the cell's outputs in order) for
	// the canonical pass: one round of fixed inputs on a fresh platform
	// seeded with t2PinSeed.
	coldCycles [6]sim.Time
	coldDigest [6]string
	// roundCycles is each cell's virtual-cycle total in every round after
	// the first on a platform, whatever the seed.
	roundCycles [6]sim.Time
}

var t2Pins = table2Pins{
	coldCycles: [6]sim.Time{28696, 31996, 59612, 34460, 62924, 36232},
	coldDigest: [6]string{"65f35f48016d0a7f", "300baebcf23e6684", "1494b7d851c3b8bb",
		"b99c4de36ca380e0", "61e769d862eaadef", "228d046cef2ae627"},
	roundCycles: [6]sim.Time{28696, 31840, 59612, 34304, 62768, 35764},
}

// t2Rig is one set-up platform with a channel and key per cell.
type t2Rig struct {
	p      *mccp.Platform
	ch     [6]int
	gcm    [6]cipher.AEAD
	ccm    [6]modes.BlockCipher
	events uint64
}

// stdBlock adapts a crypto/aes block to the modes.BlockCipher interface,
// so CCM reference outputs come from the standard library's AES rather
// than the repository's own model.
type stdBlock struct{ b cipher.Block }

func (s stdBlock) Encrypt(in bits.Block) bits.Block {
	var out bits.Block
	s.b.Encrypt(out[:], in[:])
	return out
}

// drain steps the engine until no event is pending, counting events.
func (r *t2Rig) drain() {
	for r.p.Eng.Step() {
		r.events++
	}
}

func newT2Rig(seed uint64, tr *tracer) (*t2Rig, error) {
	p, err := mccp.NewPlatform(mccp.WithCores(4), mccp.WithQueueing(0), mccp.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	r := &t2Rig{p: p}
	for i, c := range t2cells {
		t0 := tr.now()
		id, key, err := p.MC.ProvisionKey(t2KeyLen)
		tr.record("ProvisionKey", 0, 0, 0, t0, tr.now())
		if err != nil {
			return nil, fmt.Errorf("provision key: %w", err)
		}
		t0 = tr.now()
		var oerr error
		opened := false
		p.CC.OpenChannel(mccp.Suite{Family: c.family, TagLen: t2TagLen, SplitCCM: c.split}, id,
			func(ch int, err error) { r.ch[i], oerr, opened = ch, err, true })
		r.drain()
		tr.record("OpenChannel", 0, 0, 0, t0, tr.now())
		if !opened || oerr != nil {
			return nil, fmt.Errorf("open %s channel: done=%v err=%v", c.name, opened, oerr)
		}
		blk, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		if r.gcm[i], err = cipher.NewGCM(blk); err != nil {
			return nil, err
		}
		r.ccm[i] = stdBlock{blk}
	}
	return r, nil
}

// t2RoundPackets is the packet count of one round.
var t2RoundPackets = func() (n int) {
	for _, c := range t2cells {
		n += c.streams * t2Waves
	}
	return n
}()

// t2Round holds one round's inputs and outputs, cell-major.
type t2Round struct {
	nonce   [6][][]byte
	payload [6][][]byte
	out     [6][][]byte
	err     [6][]error
	latMs   [6][]float64
	cycles  [6]sim.Time
	busy    time.Duration
}

func newT2Round() *t2Round {
	rd := &t2Round{}
	for c, cell := range t2cells {
		n := 12
		if cell.family == mccp.CCM {
			n = 13
		}
		k := cell.streams * t2Waves
		rd.out[c], rd.err[c], rd.latMs[c] = make([][]byte, k), make([]error, k), make([]float64, k)
		for ; k > 0; k-- {
			rd.nonce[c] = append(rd.nonce[c], make([]byte, n))
			rd.payload[c] = append(rd.payload[c], make([]byte, t2PacketBytes))
		}
	}
	return rd
}

// fill draws a fresh round of inputs from rng.
func (rd *t2Round) fill(rng *rand.Rand) {
	for c := range t2cells {
		for k := range rd.nonce[c] {
			fillRandom(rng, rd.nonce[c][k])
			fillRandom(rng, rd.payload[c][k])
		}
	}
}

func fillRandom(rng *rand.Rand, b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := rng.Uint64()
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// run drives one round: each cell in turn keeps its streams in flight
// until its packets completed, stepping the engine to idle. Only
// the submissions and the stepping are timed.
func (r *t2Rig) run(rd *t2Round, tr *tracer, seq *uint64) {
	rd.busy = 0
	for c, cell := range t2cells {
		c, ch := c, r.ch[c]
		launched := 0
		drainID := tr.newID()
		var launch func()
		launch = func() {
			if launched == len(rd.out[c]) {
				return
			}
			k := launched
			launched++
			*seq++
			req := *seq
			sent := threadCPU()
			t0 := tr.now()
			r.p.CC.Encrypt(ch, rd.nonce[c][k], nil, rd.payload[c][k], func(b []byte, err error) {
				rd.out[c][k], rd.err[c][k] = b, err
				rd.latMs[c][k] = float64((threadCPU() - sent).Nanoseconds()) / 1e6
				launch()
			})
			tr.record("CommController.Encrypt", 0, drainID, req, t0, tr.now())
		}
		start := r.p.Eng.Now()
		t0 := tr.now()
		began := time.Now()
		for i := 0; i < cell.streams; i++ {
			launch()
		}
		r.drain()
		rd.busy += time.Since(began)
		tr.record("Engine.Step drain", drainID, 0, 0, t0, tr.now())
		rd.cycles[c] = r.p.Eng.Now() - start
	}
}

// check compares every output of the round with the standard-library
// reference, returning the failed packet count; every packet of a cell
// marked in badCell (a pinned value it missed) fails too. corruptEvery > 0
// damages one output in every corruptEvery packets first (the checks' own
// test).
func (r *t2Rig) check(rd *t2Round, badCell [6]bool, corruptEvery uint64, seq *uint64) (failed uint64) {
	pprof.Do(context.Background(), pprof.Labels(checkLabel, "check"), func(context.Context) {
		for c, cell := range t2cells {
			for k := range rd.out[c] {
				*seq++
				out := rd.out[c][k]
				if corruptEvery > 0 && *seq%corruptEvery == 0 && len(out) > 0 {
					out[0] ^= 0x80
				}
				var ref []byte
				if cell.family == mccp.GCM {
					ref = r.gcm[c].Seal(nil, rd.nonce[c][k], rd.payload[c][k], nil)
				} else {
					ref, _ = modes.CCMSeal(r.ccm[c], rd.nonce[c][k], nil, rd.payload[c][k], t2TagLen)
				}
				if badCell[c] || rd.err[c][k] != nil || string(out) != string(ref) {
					failed++
				}
			}
		}
	})
	return failed
}

// cellDigests fingerprints each cell's outputs in order.
func cellDigests(rd *t2Round) (d [6]string) {
	for c := range t2cells {
		h := sha256.New()
		for _, out := range rd.out[c] {
			h.Write(out)
		}
		d[c] = hex.EncodeToString(h.Sum(nil))[:16]
	}
	return d
}

// deviceCounters sums the device-side work counters across cores.
func (r *t2Rig) deviceCounters() (instr, issues, expansions uint64) {
	for _, core := range r.p.Dev.Cores {
		instr += core.CPU.Executed
		for _, n := range core.Unit.IssueCount {
			issues += n
		}
	}
	return instr, issues, r.p.Dev.KeySched.Expansions
}

func runTable2(cfg *config) (*measurement, error) {
	pins := t2Pins
	if cfg.pins != nil {
		pins = *cfg.pins
	}
	m := &measurement{layers: map[string]float64{}}
	var checkSeq uint64
	// The simulation is single-threaded and runs on this goroutine; per-
	// packet latency is this thread's CPU time, which steal does not
	// inflate.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	// Set-up: build the platform, provision keys, open channels.
	var rig *t2Rig
	for i := 0; i < cfg.setupReps; i++ {
		debug.FreeOSMemory() // each set-up starts from a collected, returned heap, as in a fresh process
		began := time.Now()
		r, err := newT2Rig(cfg.seed, cfg.tr)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(began).Seconds())
		rig = r
	}

	// Canonical pass on its own platform: its cycles and outputs must
	// match the pinned values.
	pinRig, err := newT2Rig(t2PinSeed, nil)
	if err != nil {
		return nil, err
	}
	rd := newT2Round()
	rd.fill(rand.New(rand.NewPCG(t2PinSeed, t2PinSeed)))
	var none uint64
	pinRig.run(rd, nil, &none)
	digests := cellDigests(rd)
	var badCell [6]bool
	for c := range t2cells {
		badCell[c] = digests[c] != pins.coldDigest[c] || rd.cycles[c] != pins.coldCycles[c]
	}
	m.attempted += uint64(t2RoundPackets)
	m.failed += pinRig.check(rd, badCell, cfg.corruptEvery, &checkSeq)
	if digests != pins.coldDigest || rd.cycles != pins.coldCycles {
		m.notes = append(m.notes, fmt.Sprintf("pin mismatch: cold cycles %v digests %q", rd.cycles, digests))
	}

	// Warm-up round (checked, not timed), then the measured rounds.
	rng := rand.New(rand.NewPCG(cfg.seed, 0x7AB1E2))
	rd.fill(rng)
	rig.run(rd, nil, &none)
	m.attempted += uint64(t2RoundPackets)
	m.failed += rig.check(rd, [6]bool{}, cfg.corruptEvery, &checkSeq)

	length := time.Duration(cfg.seconds * float64(time.Second))
	var alloc allocMeter
	var seq uint64
	ev0 := rig.events
	in0, is0, ex0 := rig.deviceCounters()
	cfg.meter.begin()
	start := time.Now()
	ws := newWindowSet(start, length)
	for i := range ws.w {
		ws.w[i].busy = 0
	}
	waitSteal := ws.watchSteal(false)
	roundCycleMismatch := false
	for {
		now := time.Now()
		win := ws.at(now)
		if win == nil {
			break
		}
		rd.fill(rng)
		alloc.begin()
		cpu0 := processCPU()
		rig.run(rd, cfg.tr, &seq)
		win.cpu += processCPU() - cpu0
		alloc.end()
		win.busy += rd.busy
		win.ops += uint64(t2RoundPackets)
		win.bits += uint64(t2RoundPackets) * t2PacketBytes * 8
		for c := range t2cells {
			for _, l := range rd.latMs[c] {
				win.lat.add(l)
			}
		}
		for c := range t2cells {
			badCell[c] = rd.cycles[c] != pins.roundCycles[c]
			roundCycleMismatch = roundCycleMismatch || badCell[c]
		}
		m.attempted += uint64(t2RoundPackets)
		m.failed += rig.check(rd, badCell, cfg.corruptEvery, &checkSeq)
		m.ops += uint64(t2RoundPackets)
	}
	cfg.meter.end()
	waitSteal()
	if roundCycleMismatch {
		m.notes = append(m.notes, fmt.Sprintf("pin mismatch: round cycles %v", rd.cycles))
	}
	m.windows = ws.w
	m.allocObjs, m.allocBytes = alloc.objs, alloc.bytes

	in1, is1, ex1 := rig.deviceCounters()
	events := float64(rig.events - ev0)
	blocks := float64(m.ops * t2PacketBytes / 16)
	m.layers["sim.events"] = events
	m.layers["sim.events_per_block"] = ratio(events, blocks)
	m.layers["picoblaze.instr_per_block"] = ratio(float64(in1-in0), blocks)
	m.layers["picoblaze.instr_per_event"] = ratio(float64(in1-in0), events)
	m.layers["cryptounit.issues_per_block"] = ratio(float64(is1-is0), blocks)
	m.layers["keysched.expansions_per_kop"] = ratio(float64(ex1-ex0)*1000, float64(m.ops))
	return m, nil
}
