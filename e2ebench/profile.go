package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// cpuModules are the packages whose flat CPU share the traced run reports.
var cpuModules = []string{"sta", "netlist", "sim", "errest", "lac", "core", "sizing"}

// cpuTally sums flat CPU samples by module over profiled windows.
type cpuTally struct {
	counts map[string]int64
	total  int64
}

func newCPUTally() *cpuTally { return &cpuTally{counts: map[string]int64{}} }

// profile runs fn, and only fn, under a CPU profile and adds its samples
// to the tally. A full collection comes first, so no collector work owed
// by the unprofiled code before it (an untraced twin, an output check,
// the probe) lands in the window.
func (t *cpuTally) profile(fn func()) error {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return t.add(buf.Bytes())
}

// add decodes a gzipped pprof CPU profile and tallies its samples. A
// sample whose stack passes through the collector or the allocator
// counts as "gc"; any other counts toward the package of its leaf frame.
func (t *cpuTally) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		v := s.values[0]
		t.total += v
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.str(p.funcName[fn]))
			}
		}
		if len(frames) == 0 {
			continue
		}
		mod := packageOf(frames[0])
		for _, f := range frames {
			if isGCFrame(f) {
				mod = "gc"
				break
			}
		}
		t.counts[mod] += v
	}
	return nil
}

// shares returns each module's share of the tallied samples, plus "gc"
// for garbage collection and allocation.
func (t *cpuTally) shares() (map[string]float64, error) {
	if t.total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	out := map[string]float64{}
	for _, m := range append(cpuModules, "gc") {
		out[m] = float64(t.counts[m]) / float64(t.total)
	}
	return out, nil
}

func isGCFrame(fn string) bool {
	for _, prefix := range []string{"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject"} {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}

// packageOf maps "repro/internal/sta.Analyze" to "sta" and
// "runtime.memmove" to "runtime".
func packageOf(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.Index(fn, "."); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// profile is the part of profile.proto the shares need.
type profile struct {
	strings  []string
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, leaf first
	funcName map[uint64]int64    // function id → name string index
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i <= 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location {id, line{function_id}}
			var id uint64
			var funcs []uint64
			err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function {id, name}
			var id uint64
			var name int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints handles a repeated integer field in either packed or
// unpacked encoding.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, handing each field's number, wire
// type and payload (varint value or bytes) to fn.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
