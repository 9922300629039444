package domain

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"github.com/s3wlan/s3wlan/internal/trace"
)

// TestViewsIntoMatchesViews: the pooled snapshot must be
// indistinguishable from the allocating Views path across mutations,
// and reusing the buffer must never let a later call alias an earlier
// view's user slice.
func TestViewsIntoMatchesViews(t *testing.T) {
	d := New(Config{Shards: 4})
	for i := 0; i < 9; i++ {
		if err := d.AddAP(trace.APID(fmt.Sprintf("ap%d", i)), 1e6); err != nil {
			t.Fatal(err)
		}
	}
	var ps []Placement
	for i := 0; i < 40; i++ {
		ps = append(ps, Placement{
			User:      trace.UserID(fmt.Sprintf("u%02d", i)),
			AP:        trace.APID(fmt.Sprintf("ap%d", i%9)),
			DemandBps: float64(10 * (i + 1)),
		})
	}
	if _, err := d.Commit(ps, nil); err != nil {
		t.Fatal(err)
	}

	var buf ViewBuf
	check := func(stage string) {
		t.Helper()
		want, wantVer := d.Views("probe")
		d.ViewsInto("probe", &buf)
		if !reflect.DeepEqual(buf.Views(), want) {
			t.Fatalf("%s: ViewsInto diverged from Views:\nwant %+v\ngot  %+v", stage, want, buf.Views())
		}
		if !reflect.DeepEqual(buf.Version(), wantVer) {
			t.Fatalf("%s: version vector diverged: %v vs %v", stage, buf.Version(), wantVer)
		}
	}
	check("initial")

	// Mutate: partial leave, full leave, a move, an AP removal.
	d.Leave("u00", "ap0", 5)
	check("partial leave")
	if _, ok := d.LeaveAll("u01", "ap1"); !ok {
		t.Fatal("LeaveAll failed")
	}
	check("full leave")
	if _, err := d.Commit([]Placement{{User: "u02", AP: "ap5", Prev: "ap2", DemandBps: 30}}, nil); err != nil {
		t.Fatal(err)
	}
	check("move")
	if _, ok := d.RemoveAP("ap8"); !ok {
		t.Fatal("RemoveAP failed")
	}
	check("AP removed")

	// Aliasing guard: snapshot, then reuse the same buffer for a bigger
	// domain state; the first snapshot's user slices must be unaffected.
	d.ViewsInto("probe", &buf)
	frozen := make([][]trace.UserID, len(buf.Views()))
	for i, v := range buf.Views() {
		frozen[i] = append([]trace.UserID(nil), v.Users...)
	}
	first := buf.Views()
	var buf2 ViewBuf
	d.ViewsInto("probe", &buf2) // independent buffer, same content
	for i := range first {
		if !reflect.DeepEqual(first[i].Users, frozen[i]) {
			t.Fatalf("view %d users mutated by later snapshot: %v vs %v", i, first[i].Users, frozen[i])
		}
	}
}

// TestViewsIntoFlatInResidents: a view carries aggregates only, so the
// pooled buffer's footprint and the allocations of a snapshot are the
// same with no residents and with 100k.
func TestViewsIntoFlatInResidents(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100k residents")
	}
	measure := func(residents int) (allocs float64, footprint uintptr) {
		d, _ := newBenchDomain(t, 4, residents)
		var buf ViewBuf
		d.ViewsInto("probe", &buf)
		allocs = testing.AllocsPerRun(100, func() { d.ViewsInto("probe", &buf) })
		footprint = uintptr(cap(buf.views))*unsafe.Sizeof(APView{}) +
			uintptr(cap(buf.ver))*unsafe.Sizeof(uint64(0))
		for _, v := range buf.Views() {
			if v.Users != nil || v.UserDemands != nil {
				t.Fatalf("view %s copies membership", v.ID)
			}
		}
		return allocs, footprint
	}
	a0, f0 := measure(0)
	a1, f1 := measure(100_000)
	if a0 != 0 || a1 != 0 {
		t.Errorf("ViewsInto allocates %.1f (0 residents) / %.1f (100k) objects, want 0", a0, a1)
	}
	if f0 != f1 {
		t.Errorf("ViewBuf footprint %d B at 0 residents, %d B at 100k; want equal", f0, f1)
	}
}
