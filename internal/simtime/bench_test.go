package simtime

import (
	"context"
	"testing"
	"time"
)

func BenchmarkVirtualSleep(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		for i := 0; i < b.N; i++ {
			_ = k.Sleep(context.Background(), time.Second)
		}
	})
}

func BenchmarkVirtualParallelSleepers(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		wg := NewWaitGroup(k)
		per := b.N/32 + 1
		for w := 0; w < 32; w++ {
			wg.Go("sleeper", func() {
				for i := 0; i < per; i++ {
					_ = k.Sleep(context.Background(), time.Millisecond)
				}
			})
		}
		_ = wg.Wait(context.Background())
	})
}

func BenchmarkWaiterWakeWait(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		for i := 0; i < b.N; i++ {
			w := k.NewWaiter()
			w.Wake()
			_ = w.Wait(context.Background())
		}
	})
}

// BenchmarkSelectorWakeWait measures one full selector cycle: reset, claim,
// wait — the hot path of event-driven queue waits and device parks.
func BenchmarkSelectorWakeWait(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		sel := NewSelector(k)
		for i := 0; i < b.N; i++ {
			sel.Reset()
			sel.TryWake(0)
			_, _ = sel.Wait(context.Background(), 0)
		}
	})
}

// BenchmarkVirtualSameDeadlineSleepers exercises same-deadline batches: many
// tasks sleeping to one deadline fire together, in the order they were set.
func BenchmarkVirtualSameDeadlineSleepers(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		wg := NewWaitGroup(k)
		per := b.N/32 + 1
		for w := 0; w < 32; w++ {
			wg.Go("sleeper", func() {
				for i := 0; i < per; i++ {
					_ = k.Sleep(context.Background(), time.Second)
				}
			})
		}
		_ = wg.Wait(context.Background())
	})
}

// BenchmarkSelectorDeadlineClaimed measures a deadline park that a peer
// claims before it expires — the pattern of netsim flows and device parks —
// so each cycle sets a deadline and withdraws it without moving the clock.
func BenchmarkSelectorDeadlineClaimed(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		sel, peer := NewSelector(k), NewSelector(k)
		peer.Reset()
		k.Go("claimer", func() {
			for i := 0; i < b.N; i++ {
				_, _ = peer.Wait(context.Background(), 0)
				peer.Reset()
				sel.TryWake(0)
			}
		})
		for i := 0; i < b.N; i++ {
			sel.Reset()
			peer.TryWake(0)
			_, _ = sel.Wait(context.Background(), time.Second)
		}
	})
}

// BenchmarkVirtualDistinctDeadlines keeps 1,024 sleepers on distinct
// periods, so nearly every deadline is alone and the heap stays deep.
func BenchmarkVirtualDistinctDeadlines(b *testing.B) {
	const sleepers = 1024
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		wg := NewWaitGroup(k)
		per := b.N/sleepers + 1
		for w := 0; w < sleepers; w++ {
			period := time.Millisecond + time.Duration(w)*time.Nanosecond
			wg.Go("sleeper", func() {
				for i := 0; i < per; i++ {
					_ = k.Sleep(context.Background(), period)
				}
			})
		}
		_ = wg.Wait(context.Background())
	})
}
