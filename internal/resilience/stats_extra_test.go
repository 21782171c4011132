package resilience

import (
	"sync"
	"testing"
)

func TestStatsExtraCounters(t *testing.T) {
	s := NewStats()
	c := s.Counter("guard_clamped_low")
	if again := s.Counter("guard_clamped_low"); again != c {
		t.Fatal("Counter returned a different pointer for the same name")
	}
	c.Add(3)
	s.Counter("guard_checked").Add(7)
	m := scrape(t, s)
	if m["rne_guard_clamped_low_total"] != 3 || m["rne_guard_checked_total"] != 7 {
		t.Fatalf("feature counters = %v", m)
	}
}

func TestStatsExtraCountersConcurrent(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Counter("hits").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("hits").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
}
