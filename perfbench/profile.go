package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// This file attributes CPU-profile samples to the repository's layers. A
// sample belongs to the innermost frame whose source file is in a repository
// package, counting inlined frames. The file, not the function name, decides:
// the compiler names a closure inlined from algorithms into experiments
// "experiments.sortOnce.SampleSort.Program.func2", which would credit
// algorithm work to the experiment driver. Runtime frames below the first
// repository frame decide two runtime layers: collection work is GC
// wherever it runs, and parking, readying and channel frames under the
// simulator (or on the scheduler's own stack) are goroutine handoff.

// frame is one (possibly inlined) function on a sampled stack.
type frame struct{ name, file string }

// stackSample is one profile sample: frames innermost first and the CPU
// nanoseconds it stands for.
type stackSample struct {
	frames []frame
	ns     int64
}

// repoFile matches a source file of the repository as a -trimpath build
// records it, with or without the module version the replace directive adds.
var repoFile = regexp.MustCompile(`^repro(?:@[^/]*)?/(?:internal/([^/]+)|(perfbench))/`)

const (
	layerGC        = "runtime.gc"
	layerHandoff   = "runtime.handoff"
	layerHTTP      = "http"
	layerBench     = "bench"
	layerUnmatched = "unattributed"
)

var gcFuncs = []string{
	"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.(*gcWork)", "runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.bgscavenge", "runtime.wbBufFlush", "runtime._GC",
	"runtime.(*gcControllerState)", "runtime.(*mheap).reclaim", "runtime.forEachP",
}

var handoffFuncs = []string{
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.schedule",
	"runtime.findRunnable", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.send", "runtime.recv", "runtime.mcall", "runtime.wakep", "runtime.startm",
	"runtime.stopm", "runtime.notewakeup", "runtime.notesleep", "runtime.runq", "runtime.stealWork",
	"runtime.execute", "runtime.gogo", "runtime.goexit0", "runtime.goschedImpl", "runtime.gosched_m",
	"runtime.resetspinning", "runtime.checkTimers", "runtime.futex", "runtime.semasleep",
	"runtime.semawakeup", "runtime.netpoll", "runtime.casgstatus", "runtime.releasep",
	"runtime.acquirep", "runtime.handoffp", "runtime.exitsyscall", "runtime.entersyscall",
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// layerOf names the layer a stack's CPU time belongs to.
func layerOf(frames []frame) string {
	gc, handoff := false, false
	for _, f := range frames {
		if m := repoFile.FindStringSubmatch(f.file); m != nil {
			pkg := m[1]
			if m[2] != "" {
				pkg = layerBench
			}
			switch {
			case gc:
				return layerGC
			case handoff && pkg == "sim":
				return layerHandoff
			}
			return pkg
		}
		gc = gc || hasPrefix(f.name, gcFuncs)
		handoff = handoff || hasPrefix(f.name, handoffFuncs)
	}
	switch {
	case gc:
		return layerGC
	case handoff:
		return layerHandoff
	}
	for _, f := range frames {
		if strings.HasPrefix(f.name, "net/http.") || strings.HasPrefix(f.name, "net.") {
			return layerHTTP
		}
	}
	return layerUnmatched
}

// attribute adds each sample's CPU nanoseconds of a gzipped pprof profile to
// its layer in into, and returns the profile's total.
func attribute(raw []byte, into map[string]int64) (int64, error) {
	samples, err := decodeProfile(raw)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range samples {
		into[layerOf(s.frames)] += s.ns
		total += s.ns
	}
	return total, nil
}

// decodeProfile reads the parts of a gzipped profile.proto message that
// attribution needs: samples, locations with their inlined lines, functions
// and the string table.
func decodeProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type function struct{ name, file int64 }
	var (
		samples   []rawSample
		locs      = map[uint64][]uint64{} // location → function ids, innermost first
		funcs     = map[uint64]function{}
		strs      []string
		unitTypes [][2]int64 // sample_type (type, unit) string indexes
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			unitTypes = append(unitTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, pb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, pb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	nsIndex := -1
	for i, t := range unitTypes {
		if str(t[1]) == "nanoseconds" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if nsIndex >= len(s.values) {
			return nil, errors.New("profile: sample without a nanoseconds value")
		}
		st := stackSample{ns: s.values[nsIndex]}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				st.frames = append(st.frames, frame{name: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varints as v
// and length-delimited fields as b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
