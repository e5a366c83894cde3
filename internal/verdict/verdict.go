// Package verdict is the one classification of per-packet outcomes the
// whole stack shares, and the home of the sentinel errors it classifies.
// It is a leaf: it imports nothing from the stack, so every layer —
// core, qos, radio, obs, cluster, server — can use the same Verdict. The
// cluster's verdict counters, the server's wire statuses and the trace
// spans' outcomes are all this one type.
//
// The sentinels are declared here and re-exported under their
// long-standing names (core.ErrNoResources, qos.ErrShed, radio.ErrAuth,
// ...) with unchanged error strings, so existing == and errors.Is
// comparisons keep working.
package verdict

import "errors"

// The sentinel errors For classifies.
var (
	// ErrNoResources is the paper's error flag: no idle cryptographic core
	// (core.ErrNoResources).
	ErrNoResources = errors.New("mccp: no idle cryptographic core (error flag)")
	// ErrQueueFull is the bounded device request queue's shed verdict
	// (core.ErrQueueFull).
	ErrQueueFull = errors.New("mccp: request queue full (load shed)")
	// ErrShed is QoS admission at a full class queue (qos.ErrShed).
	ErrShed = errors.New("qos: class queue full (load shed)")
	// ErrExpired is a deadline that passed while queued (qos.ErrExpired).
	ErrExpired = errors.New("qos: deadline expired before dispatch (dropped)")
	// ErrAged is CoDel-style in-queue aging (qos.ErrAged).
	ErrAged = errors.New("qos: queue age limit exceeded (dropped stale packet)")
	// ErrAuth is a failed tag verification (modes.ErrAuth, radio.ErrAuth).
	ErrAuth = errors.New("modes: message authentication failed")
)

// Verdict classifies the outcome of one packet operation. The numeric
// values are load-bearing: they index the cluster's per-verdict counters
// and equal the server wire protocol's status codes (server.Status), so
// the cluster → wire mapping is the identity.
type Verdict uint8

// The verdicts, in wire-protocol status order.
const (
	// OK: the operation completed cleanly.
	OK Verdict = iota
	// Rejected: the paper's error flag — no idle core and no queue slot
	// (core.ErrNoResources), or session-level admission control.
	Rejected
	// Shed: dropped by QoS admission at a full class queue (qos.ErrShed)
	// or at a bounded device request queue (core.ErrQueueFull).
	Shed
	// Expired: dropped at dispatch because the packet's deadline passed
	// while it was queued (qos.ErrExpired).
	Expired
	// Aged: dropped by CoDel-style in-queue aging (qos.ErrAged).
	Aged
	// AuthFail: tag verification failed on decrypt (radio.ErrAuth).
	AuthFail
	// Failed: any other error.
	Failed

	// Num is the number of verdicts (the counter-array length).
	Num = int(Failed) + 1
)

// For classifies an operation's returned error. It is the single mapping
// the cluster counters and the server protocol statuses both derive from.
func For(err error) Verdict {
	switch err {
	case nil:
		return OK
	case ErrNoResources:
		return Rejected
	case ErrShed, ErrQueueFull:
		return Shed
	case ErrExpired:
		return Expired
	case ErrAged:
		return Aged
	case ErrAuth:
		return AuthFail
	}
	return Failed
}

var names = [Num]string{"ok", "rejected", "shed", "expired", "aged", "auth-fail", "failed"}

// String returns the verdict's wire-protocol name.
func (v Verdict) String() string {
	if int(v) >= Num {
		return "invalid"
	}
	return names[v]
}

// Err returns the canonical sentinel error for the verdict, so errors.Is
// and == comparisons against the sentinels keep working. OK maps to nil;
// Shed maps to ErrShed (ErrQueueFull classifies the same but is not the
// canonical representative); Failed maps to a distinct generic error.
func (v Verdict) Err() error {
	switch v {
	case OK:
		return nil
	case Rejected:
		return ErrNoResources
	case Shed:
		return ErrShed
	case Expired:
		return ErrExpired
	case Aged:
		return ErrAged
	case AuthFail:
		return ErrAuth
	}
	return errFailed
}

var errFailed = errors.New("verdict: operation failed")
