package cryptocore_test

import (
	"runtime"
	"testing"
	"time"

	"mccp/internal/cryptocore"
	"mccp/internal/radio"
)

// benchCorePacket runs one 2 KB packet per iteration through a single core
// with AES-128 keys loaded, stepping the engine itself so it can count
// events. It reports engine events, host nanoseconds and heap allocations
// per 16-byte payload block — the per-layer view of the cryptounit, aes,
// ghash and picoblaze work one core does for Table II.
func benchCorePacket(b *testing.B, frame func(nonce, payload []byte) (radio.Frame, error), nonceLen int) {
	const payloadBytes = 2048
	eng, c := newTestCore(make([]byte, 16))
	f, err := frame(make([]byte, nonceLen), make([]byte, payloadBytes))
	if err != nil {
		b.Fatal(err)
	}
	done := false
	onResult := func(cryptocore.Result) { done = true }
	events := 0
	run := func() {
		pushFrame(c, f)
		done = false
		c.Start(f.Task, onResult)
		for eng.Step() {
			events++
		}
		if !done {
			b.Fatal("packet did not complete")
		}
		for c.Out.Len() > 0 {
			c.Out.TryPop()
		}
	}
	run() // warm up
	events = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	began := time.Now()
	for i := 0; i < b.N; i++ {
		run()
	}
	elapsed := time.Since(began)
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	blocks := float64(b.N) * payloadBytes / 16
	b.ReportMetric(float64(events)/blocks, "events/block")
	b.ReportMetric(float64(elapsed.Nanoseconds())/blocks, "ns/block")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/blocks, "allocs/block")
}

func BenchmarkCoreGCMBlock(b *testing.B) {
	benchCorePacket(b, func(nonce, payload []byte) (radio.Frame, error) {
		return radio.FrameGCMEnc(nonce, nil, payload)
	}, 12)
}

func BenchmarkCoreCCMBlock(b *testing.B) {
	benchCorePacket(b, func(nonce, payload []byte) (radio.Frame, error) {
		return radio.FrameCCMEnc(nonce, nil, payload, 16)
	}, 13)
}
