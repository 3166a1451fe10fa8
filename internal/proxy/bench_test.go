package proxy

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkFlushScaling measures FlushAll wall time over an emulated
// 20 ms RTT WAN link for 32 dirty blocks as the pipeline window
// deepens. The flush is round-trip bound, so wall time should fall
// roughly linearly with the window until the link pipeline saturates;
// the flush-ms metric per window depth is what BENCH_5.json tracks.
func BenchmarkFlushScaling(b *testing.B) {
	const blocks = 32
	rtt := 20 * time.Millisecond
	for _, window := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += timeFlush(b, window, blocks, rtt)
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "flush-ms")
		})
	}
}
