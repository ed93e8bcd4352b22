//go:build unix && !race

package nvm

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// statm returns the process's virtual size and resident set in bytes.
func statm(t *testing.T) (virt, rss int64) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no /proc/self/statm: %v", err)
	}
	f := strings.Fields(string(b))
	v, _ := strconv.ParseInt(f[0], 10, 64)
	r, _ := strconv.ParseInt(f[1], 10, 64)
	page := int64(os.Getpagesize())
	return v * page, r * page
}

// mapCount returns the number of mappings the process holds.
func mapCount(t *testing.T) int {
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	n := 0
	for sc := bufio.NewScanner(bytes.NewReader(b)); sc.Scan(); {
		n++
	}
	return n
}

// TestUnclosedDevicesAreUnmapped pins the leak guard: devices nobody closes
// are unmapped once collected, their DRAM regions with them, so a run that
// forgets Close costs address space and mappings only until the next
// collection, never resident memory for the whole device.
func TestUnclosedDevicesAreUnmapped(t *testing.T) {
	const (
		size    = 64 << 20
		dram    = 16 << 20
		devices = 4000
		every   = 100
	)
	drainIdle()
	runtime.GC()
	virt0, _ := statm(t)
	maxMaps := 65530
	if b, err := os.ReadFile("/proc/sys/vm/max_map_count"); err == nil {
		maxMaps, _ = strconv.Atoi(strings.TrimSpace(string(b)))
	}
	var peakRSS, peakVirt int64
	peakMaps := 0
	var line [8]byte
	for i := 1; i <= devices; i++ {
		d := NewDevice(size)
		d.Store(i%(size/LineSize)*LineSize, line[:])
		d.DRAM(dram)[i%(dram/LineSize)*LineSize] = 1
		if i%every == 0 {
			virt, rss := statm(t)
			peakRSS, peakVirt = max(peakRSS, rss), max(peakVirt, virt)
			peakMaps = max(peakMaps, mapCount(t))
			runtime.GC()
		}
	}
	if peakRSS > 200<<20 {
		t.Errorf("peak RSS %d MiB over %d unclosed devices, want under 200", peakRSS>>20, devices)
	}
	if peakMaps >= maxMaps {
		t.Errorf("peak %d mappings, vm.max_map_count is %d", peakMaps, maxMaps)
	}
	// Address space is the leak's telltale: one collection interval's
	// devices, plus whatever the cleanup goroutine has not reached yet —
	// never all of them.
	_, _, _, _, arena := arenaLayout(size)
	perDevice := int64(arena + dram)
	if n := (peakVirt - virt0) / perDevice; n >= devices/2 {
		t.Errorf("address space peaked %d devices' arena and DRAM above the start, want far fewer than %d", n, devices)
	}
	// Cleanups run after the collection that found their device dead; give
	// them time, then every arena and DRAM region must be gone.
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); ; {
		virt, _ := statm(t)
		if virt-virt0 < int64(min(arena, dram)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("address space still %d MiB above the start after every device died", (virt-virt0)>>20)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNTStoreOfHeldBytesWritesNoWorkingLine pins that an NT store writes
// working only where it changes it. With working mapped read-only, a 2 MiB
// NT store of zeros onto zero lines, and one of the bytes the lines already
// hold, must both complete: one written line would fault.
func TestNTStoreOfHeldBytesWritesNoWorkingLine(t *testing.T) {
	const n = 2 << 20
	d := NewDevice(n)
	defer d.Close()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i%251 + 1)
	}
	d.NTStore(0, make([]byte, n))
	d.SFence()
	if t.Run("zeros onto zeros", func(t *testing.T) { ntStoreReadOnly(t, d, make([]byte, n)) }) {
		d.NTStore(0, data)
		d.SFence()
		t.Run("bytes onto the same bytes", func(t *testing.T) { ntStoreReadOnly(t, d, data) })
	}
}

// ntStoreReadOnly NT-stores src at the start of d, fenced, with d's working
// array mapped read-only, and fails t if the store wrote it.
func ntStoreReadOnly(t *testing.T, d *Device, src []byte) {
	protect := func(prot int) {
		if err := syscall.Mprotect(d.working, prot); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	protect(syscall.PROT_READ)
	defer protect(syscall.PROT_READ | syscall.PROT_WRITE)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("the NT store wrote working: %v", r)
		}
	}()
	d.NTStore(0, src)
	d.SFence()
}

// TestDRAMIsDistinctZeroedMemory pins what Device.DRAM hands out: zero bytes,
// apart from every other region and device, whatever an earlier region of
// the same size held.
func TestDRAMIsDistinctZeroedMemory(t *testing.T) {
	const n = 1 << 20
	var regions [][]byte
	for range 3 {
		d := NewDevice(n)
		defer d.Close()
		for range 2 {
			b := d.DRAM(n)
			if len(b) != n || !holdsOnly(b, 0) {
				t.Fatalf("region %d: %d bytes, not %d zero bytes", len(regions), len(b), n)
			}
			for i := range b {
				b[i] = byte(len(regions) + 1)
			}
			regions = append(regions, b)
		}
	}
	for i, b := range regions {
		if !holdsOnly(b, byte(i+1)) {
			t.Fatalf("region %d no longer holds what it was written: another region shares its memory", i)
		}
	}
	// A closed device's regions are unmapped, not pooled: a region taken
	// after one closed reads zero.
	d := NewDevice(n)
	d.DRAM(n)[0] = 1
	d.Close()
	d = NewDevice(n)
	defer d.Close()
	if !holdsOnly(d.DRAM(n), 0) {
		t.Fatal("a region taken after a device closed holds bytes a closed region held")
	}
}

// holdsOnly reports whether every byte of b is v.
func holdsOnly(b []byte, v byte) bool {
	for _, x := range b {
		if x != v {
			return false
		}
	}
	return true
}

// sink keeps a faulting read from being compiled away.
var sink byte

// TestDRAMFaultsAfterClose pins that Close unmaps a device's DRAM regions:
// any access through a slice kept past Close faults instead of reading or
// writing memory another device may own.
func TestDRAMFaultsAfterClose(t *testing.T) {
	const n = 64 << 10
	d := NewDevice(n)
	a, b := d.DRAM(n), d.DRAM(3*n)
	a[0], b[len(b)-1] = 1, 2
	d.Close()
	for _, access := range []struct {
		name string
		fn   func()
	}{
		{"read of the first region", func() { sink = a[n/2] }},
		{"write of the first region", func() { a[0] = 3 }},
		{"read of the second region", func() { sink = b[len(b)-1] }},
		{"write of the second region", func() { b[n] = 4 }},
	} {
		if !faults(access.fn) {
			t.Errorf("%s after Close did not fault", access.name)
		}
	}
}

// faults reports whether fn faulted on a memory access.
func faults(fn func()) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() { faulted = recover() != nil }()
	fn()
	return false
}

// TestFreeDRAMUnmapsOneRegion pins FreeDRAM: the freed region faults at once,
// the device's other regions stay usable, and Close unmaps those and never
// the freed one again — not even once a region of another device has taken
// its addresses.
func TestFreeDRAMUnmapsOneRegion(t *testing.T) {
	const n = 64 << 10
	d := NewDevice(n)
	a, b := d.DRAM(2*n), d.DRAM(n)
	a[0], b[0] = 1, 2
	d.FreeDRAM(a[:0])
	if !faults(func() { sink = a[n] }) {
		t.Error("a read of a freed region did not fault")
	}
	if faults(func() { b[n-1] = 3 }) {
		t.Fatal("freeing one region unmapped another")
	}
	other := NewDevice(n)
	defer other.Close()
	c := other.DRAM(2 * n)
	c[0] = 4
	d.Close()
	if !faults(func() { sink = b[0] }) {
		t.Error("Close did not unmap the region left after a FreeDRAM")
	}
	if faults(func() { c[len(c)-1] = 5 }) || c[0] != 4 {
		t.Error("Close unmapped a freed region's addresses again, now another device's region")
	}
}

// TestFreeDRAMRefusesForeignMemory: a device frees only the regions it
// handed out and still holds.
func TestFreeDRAMRefusesForeignMemory(t *testing.T) {
	const n = 64 << 10
	d, other := NewDevice(n), NewDevice(n)
	defer d.Close()
	defer other.Close()
	freed := d.DRAM(n)
	d.FreeDRAM(freed)
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"a Go slice", make([]byte, n)},
		{"another device's region", other.DRAM(n)},
		{"the device's region past its start", d.DRAM(n)[LineSize:]},
		{"a region freed already", freed},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FreeDRAM of %s did not panic", c.name)
				}
			}()
			d.FreeDRAM(c.b)
		}()
	}
}
