//go:build unix

package obs

import (
	"runtime"
	"syscall"
)

// processUsage returns the process's consumed user+system CPU time and
// its peak resident set size in MB (2^20 bytes), from one getrusage
// call.
func processUsage() (cpuSeconds, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	sec := func(tv syscall.Timeval) float64 {
		return float64(tv.Sec) + float64(tv.Usec)/1e6
	}
	// ru_maxrss is in bytes on darwin and in kilobytes elsewhere.
	rss := float64(ru.Maxrss) * 1024
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		rss = float64(ru.Maxrss)
	}
	return sec(ru.Utime) + sec(ru.Stime), rss / (1 << 20)
}
