package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile is read back with a minimal decoder of the pprof
// protobuf (profile.proto): only the fields needed to attribute each
// sample's self time to the Go package of its leaf function, and to skip
// samples taken inside the benchmark's own checks.

// checkLabel marks goroutine regions running the benchmark's output
// checks (a pprof label), so their samples are left out of cpu_frac.
const checkLabel = "perfbench"

var errProto = errors.New("perfbench: malformed CPU profile")

// pbField is one decoded protobuf field: its number, varint value or
// length-delimited bytes.
type pbField struct {
	num    int
	wire   int
	varint uint64
	data   []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.varint = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.varint = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field that may be packed or not.
func pbInts(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// cpuByPackage decodes a gzipped CPU profile and returns the CPU
// nanoseconds of self time per Go package path, leaving out samples
// labelled as benchmark checks.
func cpuByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		samples []pbField
		locFn   = map[uint64]uint64{} // location id -> leaf function id
		fnName  = map[uint64]uint64{} // function id -> name string index
	)
	for _, f := range top {
		switch f.num {
		case 2:
			samples = append(samples, f)
		case 4: // Location
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, g := range fs {
				switch {
				case g.num == 1:
					id = g.varint
				case g.num == 4 && !haveLine:
					// The first Line is the innermost (inlined) function.
					ls, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn = l.varint
						}
					}
					haveLine = true
				}
			}
			locFn[id] = fn
		case 5: // Function
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = g.varint
				}
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := map[string]float64{}
	for _, s := range samples {
		fs, err := pbFields(s.data)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		skip := false
		for _, g := range fs {
			switch g.num {
			case 1:
				if locs, err = pbInts(g, locs); err != nil {
					return nil, err
				}
			case 2:
				if vals, err = pbInts(g, vals); err != nil {
					return nil, err
				}
			case 3: // Label{key, str}
				ls, err := pbFields(g.data)
				if err != nil {
					return nil, err
				}
				for _, l := range ls {
					if l.num == 1 && str(l.varint) == checkLabel {
						skip = true
					}
				}
			}
		}
		if skip || len(locs) == 0 || len(vals) < 2 {
			continue
		}
		// Sample values are [count, cpu nanoseconds].
		out[funcPackage(str(fnName[locFn[locs[0]]]))] += float64(vals[1])
	}
	return out, nil
}

// funcPackage extracts the package path from a symbol name such as
// "mccp/internal/sim.(*Engine).Step" or "runtime.mallocgc".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// cpuLayers are the groups cpu_frac reports, in print order.
var cpuLayers = []string{
	"sim", "picoblaze", "cryptounit", "aes", "ghash", "bits", "crossbar",
	"core", "scheduler", "keysched", "radio", "qos", "cluster", "server",
	"runtime", "net", "loadgen", "other",
}

// layerOf maps a Go package path to the layer it is charged to.
func layerOf(pkg string) string {
	if name, ok := strings.CutPrefix(pkg, "mccp/internal/"); ok {
		switch name {
		case "cryptocore":
			return "cryptounit" // the core's datapath wrapper around the unit
		case "firmware":
			return "picoblaze" // the controller's program image
		}
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "main", strings.HasPrefix(pkg, "math/rand"):
		return "loadgen"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"), pkg == "sync",
		pkg == "sync/atomic", pkg == "internal/sync", pkg == "time",
		pkg == "internal/bytealg", pkg == "internal/chacha8rand":
		return "runtime"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "internal/poll",
		pkg == "syscall", strings.HasPrefix(pkg, "internal/syscall/"),
		pkg == "os", pkg == "bufio", pkg == "io":
		return "net"
	}
	return "other"
}

// layerFractions groups per-package CPU time into cpu_frac per layer.
func layerFractions(byPkg map[string]float64) (map[string]float64, float64) {
	frac := map[string]float64{}
	var total float64
	for pkg, ns := range byPkg {
		frac[layerOf(pkg)] += ns
		total += ns
	}
	for l := range frac {
		frac[l] = ratio(frac[l], total)
	}
	return frac, total
}
