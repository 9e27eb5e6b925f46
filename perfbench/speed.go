package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a shared 2-vCPU virtual machine whose speed
// drifts by up to half over minutes, moving every timing of a run
// together: serve throughput spread 28% over ten seeds in a slow stretch
// against 8% in a calm one. A speed meter times a fixed piece of the
// benchmark's own work, which no change to hsd can alter, at the run's
// set-up boundaries; the gated timings are scaled by the median sample
// against calNominal, its duration on the reference box at rest. Over a
// seven-minute trace, scaling 10-second medians of router scoring by the
// calibration's cut their variation from 7.3% to 3.3% (correlation
// 0.92), and lithosim's from 15% to 7.4%. The raw timings stay on the
// run's metric lines and in its record.

// calNominal is calibrate's duration on the reference box at rest.
const calNominal = 45 * time.Millisecond

// calN is the edge of the calibration's matrices (calN x calN) and calImg
// that of its image (calImg x calImg).
const (
	calN   = 64
	calImg = 512
)

// calBufs is one goroutine's calibration memory.
type calBufs struct {
	a, b, c []float64
	im, tmp []float64
}

// calSink keeps the calibration work from being optimized away.
var calSink float64

// calibrate collects garbage, so no pending collection of hsd's heap
// runs inside the sample, then times two fixed kernels, each on two
// goroutines: a repeated 64x64 matrix product (cache-resident floating
// point, like hsd's inference) and a separable 7-tap blur over a 512x512
// image (a memory-streaming stencil, like its rasterization and
// lithography simulation). Its memory is mapped outside the Go heap and
// unmapped afterwards, so the calibration neither triggers a collection
// nor raises the heap goal hsd's collections are paced by.
func calibrate() (time.Duration, error) {
	per := 3*calN*calN + 2*calImg*calImg
	raw, err := syscall.Mmap(-1, 0, 2*per*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("calibration memory: %w", err)
	}
	defer syscall.Munmap(raw)
	all := unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), 2*per)
	var bufs [2]calBufs
	for g := range bufs {
		f := all[g*per : (g+1)*per]
		cut := func(n int) []float64 { s := f[:n:n]; f = f[n:]; return s }
		bufs[g] = calBufs{a: cut(calN * calN), b: cut(calN * calN), c: cut(calN * calN),
			im: cut(calImg * calImg), tmp: cut(calImg * calImg)}
		calBlur(&bufs[g]) // first touch maps the pages outside the timing
	}
	runtime.GC()
	var total time.Duration
	for _, kernel := range []func(*calBufs) float64{calMatMul, calBlur} {
		var wg sync.WaitGroup
		var sums [2]float64
		t0 := time.Now()
		for g := range bufs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sums[g] = kernel(&bufs[g])
			}(g)
		}
		wg.Wait()
		total += time.Since(t0)
		calSink += sums[0] + sums[1]
	}
	return total, nil
}

func calMatMul(m *calBufs) float64 {
	const n = calN
	for i := range m.a {
		m.a[i] = float64(i%13) * 0.5
		m.b[i] = float64(i%7) * 0.25
		m.c[i] = 0
	}
	for r := 0; r < 60; r++ {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := m.a[i*n+k]
				row := m.c[i*n : i*n+n]
				for j, bkj := range m.b[k*n : k*n+n] {
					row[j] += aik * bkj
				}
			}
		}
	}
	return m.c[5]
}

var calKernel = [7]float64{0.05, 0.1, 0.2, 0.3, 0.2, 0.1, 0.05}

func calBlur(m *calBufs) float64 {
	const n = calImg
	for i := range m.im {
		m.im[i] = float64(i%17) * 0.1
	}
	for rep := 0; rep < 3; rep++ {
		for y := 0; y < n; y++ {
			for x := 3; x < n-3; x++ {
				s := 0.0
				for t, kv := range calKernel {
					s += kv * m.im[y*n+x+t-3]
				}
				m.tmp[y*n+x] = s
			}
		}
		for y := 3; y < n-3; y++ {
			for x := 0; x < n; x++ {
				s := 0.0
				for t, kv := range calKernel {
					s += kv * m.tmp[(y+t-3)*n+x]
				}
				m.im[y*n+x] = s
			}
		}
	}
	return m.im[n*n/2]
}

// speedMeter collects calibration samples over a run. A nil meter
// (traced runs) records nothing.
type speedMeter struct{ samples []float64 }

// sample takes four calibrations; call it only at a set-up boundary,
// while hsd does no work.
func (m *speedMeter) sample() error {
	if m == nil {
		return nil
	}
	for i := 0; i < 4; i++ {
		d, err := calibrate()
		if err != nil {
			return err
		}
		m.samples = append(m.samples, d.Seconds())
	}
	return nil
}

// factor is the median calibration time over calNominal: above 1 when
// the machine ran slower than the reference box at rest.
func (m *speedMeter) factor() float64 {
	return median(m.samples) / calNominal.Seconds()
}
