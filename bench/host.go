package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostShape is recorded in every result file: numbers from hosts of
// different shape are not comparable.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	W          int    `json:"w"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// loadWidth is W: engine workers, client goroutines and GOMAXPROCS alike.
func loadWidth() int { return min(runtime.NumCPU(), 4) }

func currentHost(w int) hostShape {
	return hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		W:          w,
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// quiesce runs a full collection so that no timed unit inherits the
// previous unit's garbage (rule N3).
func quiesce() { runtime.GC() }

// statusKB reads one "Vm*" line of /proc/self/status in KiB.
func statusKB(key string) (int64, bool) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0, false
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// rssMeter measures the peak resident set of the measured phase only
// (rule N7). start returns memory to the OS and resets the kernel's
// high-water mark; where that is not permitted it samples VmRSS instead.
type rssMeter struct {
	viaHWM bool
	stop   chan struct{}
	done   sync.WaitGroup
	mu     sync.Mutex
	peakKB int64
}

func (m *rssMeter) start() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err == nil {
		m.viaHWM = true
		return
	}
	m.stop = make(chan struct{})
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb, ok := statusKB("VmRSS"); ok {
				m.mu.Lock()
				m.peakKB = max(m.peakKB, kb)
				m.mu.Unlock()
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

// peakMiB ends the measurement and returns the peak in MiB (0 when the
// platform exposes neither counter).
func (m *rssMeter) peakMiB() float64 {
	if m.viaHWM {
		kb, _ := statusKB("VmHWM")
		return float64(kb) / 1024
	}
	if m.stop == nil {
		return 0
	}
	close(m.stop)
	m.done.Wait()
	return float64(m.peakKB) / 1024
}
