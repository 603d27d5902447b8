package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssMeter reports the process's peak resident set over the measured
// phase only. Set-up's own memory (reference matrices, dp.Sequential
// copies) is returned to the OS first, then the kernel's high-water mark
// is reset through /proc/self/clear_refs. Where that file cannot be
// written the meter falls back to polling VmRSS every 20 ms.
type rssMeter struct {
	reset bool // true: VmHWM was reset; false: polling fallback

	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak float64 // MB, polling mode only
}

// startRSS begins the measured phase.
func startRSS() *rssMeter {
	debug.FreeOSMemory()
	m := &rssMeter{}
	// "5" resets the peak RSS (VmHWM) to the current RSS; see proc(5).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err == nil {
		m.reset = true
		return m
	}
	m.stop = make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			if v := procStatusMB("VmRSS:"); v > 0 {
				m.mu.Lock()
				if v > m.peak {
					m.peak = v
				}
				m.mu.Unlock()
			}
			select {
			case <-m.stop:
				return
			case <-ticker.C:
			}
		}
	}()
	return m
}

// peakMB returns the peak RSS, in MB, of the measured phase so far.
func (m *rssMeter) peakMB() float64 {
	if m.reset {
		return procStatusMB("VmHWM:")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := procStatusMB("VmRSS:"); v > m.peak {
		m.peak = v
	}
	return m.peak
}

// end stops the polling goroutine, if there is one.
func (m *rssMeter) end() {
	if !m.reset {
		close(m.stop)
		m.wg.Wait()
	}
}

func (m *rssMeter) method() string {
	if m.reset {
		return "reset (VmHWM after /proc/self/clear_refs)"
	}
	return "polling (VmRSS every 20 ms)"
}

// procStatusMB reads one "kB" field of /proc/self/status, 0 if absent.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		parts := strings.Fields(line[len(field):])
		if len(parts) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
