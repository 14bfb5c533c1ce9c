package emu_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// Trace sizes the stream before materialising it: the slice is allocated
// once at its exact length, so a ~200k-instruction kernel costs its trace
// plus the two emulators' data pages, not the garbage of append growth.
func TestTraceAllocatesExactLength(t *testing.T) {
	w, err := workload.Generate(workload.GenParams{Name: "emu-trace-size", Iterations: 7400})
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	max := w.MaxInsts
	e := emu.New(p)
	if _, err := e.Run(max, nil); err != nil {
		t.Fatal(err)
	}
	pages := uint64(e.Mem.FootprintBytes())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trace, err := emu.Trace(p, max)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 150_000 {
		t.Fatalf("kernel traced %d instructions, want ~200k", len(trace))
	}
	if cap(trace) != len(trace) {
		t.Errorf("cap %d != len %d: trace was grown, not sized", cap(trace), len(trace))
	}
	traceBytes := uint64(len(trace)) * uint64(unsafe.Sizeof(emu.TraceEntry{}))
	// The count pass and the fill pass each build an emulator.
	limit := traceBytes + traceBytes/10 + 2*pages
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("Trace allocated %d bytes, want <= %d (trace %d + data pages %d)", got, limit, traceBytes, 2*pages)
	}
	last := trace[len(trace)-1]
	if last.Inst.Op != isa.HALT || last.Seq != int64(len(trace)-1) {
		t.Errorf("last entry %+v, want HALT at seq %d", last, len(trace)-1)
	}
}

// A program that runs past max keeps the error Run reports and yields no
// partial trace.
func TestTraceOverMaxReturnsRunError(t *testing.T) {
	p, err := asm.Assemble("loop: br r31, loop")
	if err != nil {
		t.Fatal(err)
	}
	_, want := emu.New(p).Run(1000, nil)
	if want == nil {
		t.Fatal("runaway loop did not error")
	}
	trace, err := emu.Trace(p, 1000)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("Trace error = %v, want %v", err, want)
	}
	if trace != nil {
		t.Errorf("Trace returned %d entries with its error, want nil", len(trace))
	}
}

// LoadData copies each segment a page at a time; the result must read
// exactly like a byte-by-byte load, including a segment that straddles a
// page boundary.
func TestLoadDataMatchesByteStores(t *testing.T) {
	segs := map[uint64][]byte{
		0x1000:     {1, 2, 3},
		0x2ffd:     make([]byte, 2*emu.PageSize+7), // crosses two boundaries
		0x10000000: {0xff},
	}
	for i := range segs[0x2ffd] {
		segs[0x2ffd][i] = byte(i*7 + 1)
	}
	got, want := emu.NewMemory(), emu.NewMemory()
	got.LoadData(segs)
	for addr, data := range segs {
		for i, b := range data {
			want.StoreByte(addr+uint64(i), b)
		}
	}
	if !got.Equal(want) {
		t.Error("LoadData differs from per-byte StoreByte load")
	}
	if v := got.Read(0x2ffe, 8); v != want.Read(0x2ffe, 8) {
		t.Errorf("cross-page read %#x, want %#x", v, want.Read(0x2ffe, 8))
	}
}
