//go:build !unix

package obs

// processUsage is unavailable off unix; the manifest reports 0 for both.
func processUsage() (cpuSeconds, maxRSSMB float64) { return 0, 0 }
