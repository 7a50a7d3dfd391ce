package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// fixture is a fixed set of sampled stacks, leaf first, covering each rule
// of the folding: innermost repository package wins, generic and root
// package names, and runtime-only stacks split into scheduler and GC.
var fixture = []struct {
	funcs []string
	count int64
	want  string
}{
	{[]string{
		"github.com/minatoloader/minato/internal/simtime.(*Virtual).advance",
		"github.com/minatoloader/minato/internal/queue.(*Queue).Put",
		"github.com/minatoloader/minato/internal/core.(*Loader).worker",
	}, 40, "simtime"},
	{[]string{
		"runtime.mallocgc", "runtime.newobject",
		"github.com/minatoloader/minato/internal/storage.(*Store).Load",
		"github.com/minatoloader/minato/internal/simtime.(*Virtual).Go.func1",
	}, 15, "storage"},
	{[]string{
		"github.com/minatoloader/minato/internal/queue.(*Ring[go.shape.*github.com/minatoloader/minato/internal/data.Batch]).Push",
	}, 5, "queue"},
	{[]string{
		"github.com/minatoloader/minato.(*Session).Batches.func1",
		"main.(*serve).run",
	}, 4, "minato"},
	{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 20, "go.sched"},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, 10, "go.gc"},
	{[]string{"runtime.memmove", "main.(*fingerprint).add", "main.(*serve).run"}, 4, "other"},
	{[]string{"github.com/minatoloader/minatox/pkg.F", "runtime.goexit"}, 2, "other"},
}

func TestClassifyFixture(t *testing.T) {
	for _, f := range fixture {
		if got := classify(f.funcs); got != f.want {
			t.Errorf("classify(%q) = %q, want %q", f.funcs[0], got, f.want)
		}
	}
}

func TestFoldSharesFixture(t *testing.T) {
	var stacks []stack
	for _, f := range fixture {
		stacks = append(stacks, stack{funcs: f.funcs, count: f.count})
	}
	got := fold(stacks)
	want := map[string]float64{ // counts out of 100
		"simtime": 40, "storage": 15, "queue": 5, "minato": 4, "go.sched": 20, "go.gc": 10, "other": 6,
	}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, got[l], w)
		}
	}
	if order := sortedLayers(got); order[0] != "simtime" || order[1] != "go.sched" {
		t.Errorf("sortedLayers = %v, want simtime then go.sched first", order)
	}
}

// protobuf encoding helpers for building a profile fixture.
func pbVarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func pbUint(b []byte, num int, x uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), x)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	return append(pbVarint(b, uint64(len(payload))), payload...)
}

func TestDecodeProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "main.leaf", "main.inlinedCaller", "main.root"}
	var p []byte
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	for id := uint64(1); id <= 3; id++ { // function id n is named strs[n+2]
		var fn []byte
		fn = pbUint(fn, 1, id)
		fn = pbUint(fn, 2, id+2)
		fn = pbUint(fn, 4, 0) // unused filename field
		p = pbBytes(p, 5, fn)
	}
	// Location 1 holds leaf inlined into inlinedCaller; location 2 is root.
	var loc1, loc2 []byte
	loc1 = pbUint(loc1, 1, 1)
	loc1 = pbBytes(loc1, 4, pbUint(pbUint(nil, 1, 1), 2, 10))
	loc1 = pbBytes(loc1, 4, pbUint(pbUint(nil, 1, 2), 2, 20))
	loc2 = pbUint(loc2, 1, 2)
	loc2 = pbBytes(loc2, 4, pbUint(nil, 1, 3))
	p = pbBytes(p, 4, loc1)
	p = pbBytes(p, 4, loc2)
	// Sample 1 packs its location ids and values; sample 2 does not.
	var s1, s2 []byte
	s1 = pbBytes(s1, 1, pbVarint(pbVarint(nil, 1), 2))
	s1 = pbBytes(s1, 2, pbVarint(pbVarint(nil, 7), 70000000))
	s2 = pbUint(s2, 1, 2)
	s2 = pbUint(s2, 2, 3)
	p = pbBytes(p, 2, s1)
	p = pbBytes(p, 2, s2)
	// A fixed64 field (wire type 1) the decoder must skip.
	p = append(pbVarint(p, 9<<3|1), 1, 2, 3, 4, 5, 6, 7, 8)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	stacks, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{funcs: []string{"main.leaf", "main.inlinedCaller", "main.root"}, count: 7},
		{funcs: []string{"main.root"}, count: 3},
	}
	if !reflect.DeepEqual(stacks, want) {
		t.Fatalf("decodeProfile = %+v, want %+v", stacks, want)
	}
	if _, err := decodeProfile(gz.Bytes()[:10]); err == nil {
		t.Error("decodeProfile accepted a truncated profile")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the result line's metric names
// and units in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d] = %s %s, BENCHMARK.json has %s %s",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
