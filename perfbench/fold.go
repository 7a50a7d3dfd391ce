package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Profile folding. A CPU profile from runtime/pprof is a gzipped
// profile.proto message; decodeProfile reads the few fields folding needs
// (samples, locations, functions, strings) with a minimal protobuf reader,
// so the benchmark needs nothing outside the standard library.

// stack is one sampled call stack, leaf first, with its sample count.
type stack struct {
	funcs []string
	count int64
}

const repoModule = "github.com/minatoloader/minato"

// layerOf names the layer a function belongs to: the last element of a
// repository package path ("simtime", "queue", ...; the root package is
// "minato"), or "" for a function outside the repository.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // drop generic type arguments
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == repoModule:
		return "minato"
	case strings.HasPrefix(pkg, repoModule+"/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:]
	}
	return ""
}

// gcFuncs are the runtime functions whose presence marks a runtime-only
// stack as garbage-collector work rather than scheduling.
var gcFuncs = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.(*scavengerState)", "runtime.wbBufFlush", "runtime.(*mheap).reclaim",
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// classify attributes a stack to the innermost repository package on it.
// A stack of runtime functions only is "go.gc" when it does collector work
// and "go.sched" otherwise; anything else (the benchmark's own code, other
// standard-library work) is "other".
func classify(funcs []string) string {
	runtimeOnly := true
	for _, fn := range funcs {
		if l := layerOf(fn); l != "" {
			return l
		}
		if !isRuntime(fn) {
			runtimeOnly = false
		}
	}
	if !runtimeOnly {
		return "other"
	}
	for _, fn := range funcs {
		for _, p := range gcFuncs {
			if strings.HasPrefix(fn, p) {
				return "go.gc"
			}
		}
	}
	return "go.sched"
}

// fold sums stack sample counts by layer and returns each layer's share in
// percent of all samples.
func fold(stacks []stack) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[classify(s.funcs)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	for l, c := range counts {
		shares[l] = 100 * float64(c) / float64(total)
	}
	return shares
}

// sortedLayers returns the layers of shares, largest share first.
func sortedLayers(shares map[string]float64) []string {
	ls := make([]string, 0, len(shares))
	for l := range shares {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool {
		if shares[ls[i]] != shares[ls[j]] {
			return shares[ls[i]] > shares[ls[j]]
		}
		return ls[i] < ls[j]
	})
	return ls
}

// decodeProfile parses a gzipped pprof CPU profile into stacks. The count
// of a stack is its first sample value (samples, for a CPU profile).
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := uints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := uints(wire, v, b)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				name := "?"
				if i := funcNames[fid]; i >= 0 && i < int64(len(strs)) {
					name = strs[i]
				}
				st.funcs = append(st.funcs, name)
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks the protobuf message b, calling fn with each field's number,
// wire type, and value: the varint for wire type 0, the payload for wire
// type 2. Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// uints decodes a repeated integer field: one varint, or a packed run.
func uints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// varint decodes a base-128 varint, returning the value and its length (0
// when b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
