package obs

// CacheStats is a point-in-time snapshot of a result cache
// (internal/rescache), defined here so the exporters (promtext,
// cmd/allocd's /metrics, cmd/allocload's scrape parser) share one
// vocabulary without importing the cache itself. All counters are
// cumulative since process start.
type CacheStats struct {
	Hits      int64 // served from a stored entry
	Misses    int64 // filled by running the allocation
	Shared    int64 // collapsed onto another request's in-flight fill
	Abandoned int64 // waiters whose context expired before the fill finished
	Evictions int64 // entries dropped to respect the capacity bounds

	Entries int   // stored entries right now
	Bytes   int64 // stored value bytes right now

	MaxEntries int   // configured entry bound (0: unbounded)
	MaxBytes   int64 // configured byte bound (0: unbounded)

	// HitLatency observes lookup-to-return time on hits; FillLatency
	// observes the leader's fill duration on misses. Both use the
	// shared fixed-bucket ladder so they merge and export like every
	// other histogram in the system.
	HitLatency  LatencyHistogram
	FillLatency LatencyHistogram
}

// Requests returns the total served lookups the stats cover.
// Abandoned waits are excluded: they left before an answer existed,
// so counting them as served would distort the hit rate both ways.
func (s CacheStats) Requests() int64 { return s.Hits + s.Misses + s.Shared }

// HitRate returns the fraction of lookups that avoided an
// allocation (hits plus singleflight-shared), in [0, 1]; 0 when no
// lookups were made.
func (s CacheStats) HitRate() float64 {
	total := s.Requests()
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}
