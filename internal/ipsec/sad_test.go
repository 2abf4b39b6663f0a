package ipsec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stepClock is an SA clock shared by many SAs and stepped by hand; it
// is safe for concurrent use.
type stepClock struct{ ns atomic.Int64 }

func newStepClock() *stepClock {
	c := &stepClock{}
	c.ns.Store(time.Unix(5000, 0).UnixNano())
	return c
}

func (c *stepClock) now() time.Time        { return time.Unix(0, c.ns.Load()) }
func (c *stepClock) step(dt time.Duration) { c.ns.Add(int64(dt)) }

// clockedSA builds a cheap inbound SA that reads the given clock.
func clockedSA(tb testing.TB, spi uint32, clock func() time.Time) *SA {
	tb.Helper()
	sa, err := NewSA(spi, SuiteNull, make([]byte, SuiteNull.KeyBits()/8), Lifetime{})
	if err != nil {
		tb.Fatal(err)
	}
	sa.SetClock(clock)
	return sa
}

// TestSADRetirementQueueRetiresAllDue supersedes every tunnel once,
// steps the clock past DefaultGrace, and checks that a single install
// and, separately, a single Sweep pop every due generation.
func TestSADRetirementQueueRetiresAllDue(t *testing.T) {
	const tunnels = 1024
	peer := MustAddr("192.1.99.35")
	for _, via := range []string{"install", "sweep"} {
		t.Run(via, func(t *testing.T) {
			clk := newStepClock()
			d := NewSAD()
			spi := uint32(0)
			for gen := 0; gen < 2; gen++ {
				for i := 0; i < tunnels; i++ {
					spi++
					d.InstallInboundFor(fmt.Sprintf("t%d", i), peer, clockedSA(t, spi, clk.now))
				}
			}
			if in, _ := d.Count(); in != 2*tunnels {
				t.Fatalf("within grace: %d inbound SAs, want %d", in, 2*tunnels)
			}
			if len(d.retiring) != tunnels {
				t.Fatalf("retirement queue holds %d entries, want %d", len(d.retiring), tunnels)
			}
			clk.step(DefaultGrace + time.Millisecond)
			want := tunnels
			if via == "install" {
				spi++
				d.InstallInboundFor("fresh", peer, clockedSA(t, spi, clk.now))
				want++
			} else {
				d.Sweep()
			}
			if in, _ := d.Count(); in != want {
				t.Errorf("after grace: %d inbound SAs, want one per tunnel (%d)", in, want)
			}
			if len(d.retiring) != 0 {
				t.Errorf("retirement queue still holds %d entries", len(d.retiring))
			}
			for i := 0; i < tunnels; i++ {
				if d.BySPIPeer(peer, uint32(i+1)) != nil {
					t.Fatalf("tunnel %d: superseded generation survived its grace window", i)
				}
			}
		})
	}
}

// TestSADRolloverWithinGraceDropsReplacedEntries rolls one tunnel over
// every 2/5 of the grace window, so each generation is replaced before
// its own grace closes and its queue entry goes stale. A stale entry
// must be dropped, not retired. With unique SPIs, retiring it would
// forget the draining generation, which the next rollover then fails
// to remove. With SPIs alternating between two values, every install
// reuses the SPI of the generation it removes on the spot, and that
// removal must not take the new SA with it.
func TestSADRolloverWithinGraceDropsReplacedEntries(t *testing.T) {
	for _, tc := range []struct {
		name string
		spi  func(i int) uint32
	}{
		{"unique-spis", func(i int) uint32 { return uint32(200 + i) }},
		{"reused-spis", func(i int) uint32 { return uint32(100 + i%2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newStepClock()
			d := NewSAD()
			peer := MustAddr("192.1.99.35")
			var cur *SA
			for i := 0; i < 12; i++ {
				cur = clockedSA(t, tc.spi(i), clk.now)
				d.InstallInboundFor("hot", peer, cur)
				if in, _ := d.Count(); in > 2 {
					t.Fatalf("after rollover %d: %d inbound SAs, want <= 2 generations", i, in)
				}
				if d.BySPIPeer(peer, cur.SPI) != cur {
					t.Fatalf("rollover %d removed the generation it installed", i)
				}
				clk.step(DefaultGrace * 2 / 5)
			}
			clk.step(DefaultGrace)
			d.Sweep()
			if len(d.retiring) != 0 {
				t.Errorf("retirement queue still holds %d entries", len(d.retiring))
			}
			if in, _ := d.Count(); in != 1 || d.BySPIPeer(peer, cur.SPI) != cur {
				t.Errorf("after grace: %d inbound SAs, want only the serving generation", in)
			}
		})
	}
}

// TestSADTimeExpiredGenerationLeavesWithQueueHead pins how the queue
// treats a generation whose own time bound runs out before the
// generation superseded ahead of it is due. Retirement follows the
// supersession order, so the expired generation stays indexed,
// refusing to decrypt, until the head entry is due; then one sweep
// removes both.
func TestSADTimeExpiredGenerationLeavesWithQueueHead(t *testing.T) {
	clk := newStepClock()
	d := NewSAD()
	peer := MustAddr("192.1.99.35")
	const life = DefaultGrace / 2
	short, err := NewSA(30, SuiteNull, make([]byte, SuiteNull.KeyBits()/8), Lifetime{Duration: life})
	if err != nil {
		t.Fatal(err)
	}
	short.SetClock(clk.now)
	d.InstallInboundFor("b", peer, short)
	clk.step(life + time.Millisecond)
	d.InstallInboundFor("a", peer, clockedSA(t, 10, clk.now))
	d.InstallInboundFor("a", peer, clockedSA(t, 11, clk.now))
	d.InstallInboundFor("b", peer, clockedSA(t, 31, clk.now))

	// The head (SPI 10) is due only strictly after its deadline; SPI
	// 30 is past Created+life+DefaultGrace already.
	clk.step(DefaultGrace)
	d.Sweep()
	if !short.Retired() || d.BySPIPeer(peer, 10).Retired() {
		t.Fatal("clock setup: want SPI 30 retired on its time bound, SPI 10 still in grace")
	}
	if d.BySPIPeer(peer, 30) != short {
		t.Error("time-expired generation left before the queue head was due")
	}
	blob := make([]byte, 64)
	binary.BigEndian.PutUint32(blob, short.SPI)
	if _, err := short.Open(blob); !errors.Is(err, ErrExpired) {
		t.Errorf("time-expired generation opened with %v, want ErrExpired", err)
	}

	clk.step(time.Millisecond)
	d.Sweep()
	if in, _ := d.Count(); in != 2 || d.BySPIPeer(peer, 10) != nil || d.BySPIPeer(peer, 30) != nil {
		t.Errorf("once the head is due: %d inbound SAs, want only the two serving generations", in)
	}
	if len(d.retiring) != 0 {
		t.Errorf("retirement queue still holds %d entries", len(d.retiring))
	}
}

// TestSADResetEmptiesRetirementQueue checks that a gateway restart
// drops queued retirements along with the chains they point into.
func TestSADResetEmptiesRetirementQueue(t *testing.T) {
	clk := newStepClock()
	d := NewSAD()
	for i := 0; i < 3; i++ {
		d.InstallInboundFor("t", Addr{}, clockedSA(t, uint32(10+i), clk.now))
	}
	if len(d.retiring) == 0 {
		t.Fatal("rollovers queued no retirement")
	}
	d.Reset()
	if len(d.retiring) != 0 {
		t.Errorf("Reset left %d queued retirements", len(d.retiring))
	}
	if in, out := d.Count(); in != 0 || out != 0 {
		t.Errorf("Reset left %d inbound, %d outbound SAs", in, out)
	}
	// The SAD works normally after the reset.
	d.InstallInboundFor("t", Addr{}, clockedSA(t, 20, clk.now))
	d.InstallInboundFor("t", Addr{}, clockedSA(t, 21, clk.now))
	clk.step(DefaultGrace + time.Millisecond)
	d.Sweep()
	if in, _ := d.Count(); in != 1 || d.BySPI(21) == nil {
		t.Errorf("after reset and rollover: %d inbound SAs", in)
	}
}

// TestSADConcurrentRolloverStress installs rollovers for shared
// tunnels from several goroutines, moving them between two peers,
// while others sweep and look up. Once grace has passed, exactly the
// serving generation of every tunnel must remain. Run under -race.
func TestSADConcurrentRolloverStress(t *testing.T) {
	const tunnels, writers, rounds = 64, 4, 40
	clk := newStepClock()
	d := NewSAD()
	peers := []Addr{MustAddr("192.1.99.35"), MustAddr("192.1.99.36")}
	var spi atomic.Uint32
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var leaked atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Sweep()
				d.BySPIPeer(peers[r], spi.Load())
				// Loose bound: Count sums buckets non-atomically and
				// installs land in a bucket before the chain, so allow
				// slack, but a leak grows with every round.
				if in, _ := d.Count(); in > 3*tunnels {
					leaked.Store(int64(in))
				}
			}
		}(r)
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < tunnels; i++ {
					sa := clockedSA(t, spi.Add(1), clk.now)
					d.InstallInboundFor(fmt.Sprintf("t%d", i), peers[(i+r+w)%2], sa)
				}
				if w == 0 && r%8 == 7 {
					clk.step(DefaultGrace / 2)
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if n := leaked.Load(); n != 0 {
		t.Errorf("inbound SAD reached %d SAs mid-run, bound is 2 per tunnel plus in-flight installs", n)
	}

	clk.step(DefaultGrace + time.Millisecond)
	d.Sweep()
	if in, _ := d.Count(); in != tunnels {
		t.Errorf("after grace: %d inbound SAs, want exactly one per tunnel (%d)", in, tunnels)
	}
	if len(d.retiring) != 0 {
		t.Errorf("retirement queue still holds %d entries", len(d.retiring))
	}
	for i := 0; i < tunnels; i++ {
		g := d.gens[fmt.Sprintf("t%d", i)]
		if g.prev != nil || d.BySPIPeer(g.curPeer, g.cur.SPI) != g.cur {
			t.Fatalf("tunnel %d: serving generation not the only one installed", i)
		}
	}
}

// BenchmarkSAD_Rollover is one inbound rollover install against N
// installed tunnels, each with a superseded generation draining: the
// SAD cost IKE pays per rekeyed SA at fabric scale. Tunnels roll over
// round-robin, as in a storm. The work per install does not depend on
// N; what still grows with N is cache misses on colder per-tunnel
// state.
func BenchmarkSAD_Rollover(b *testing.B) {
	for _, n := range []int{64, 1024, 25000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			d := NewSAD()
			peer := MustAddr("192.1.99.35")
			key := randKey(SuiteNull.KeyBits()/8, 9)
			spi := uint32(0)
			next := func() *SA {
				spi++
				sa, err := NewSA(spi, SuiteNull, key, Lifetime{})
				if err != nil {
					b.Fatal(err)
				}
				return sa
			}
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("t%d/b-to-a", i)
				d.InstallInboundFor(names[i], peer, next())
				d.InstallInboundFor(names[i], peer, next())
			}
			// SAs are built outside the timer, a batch at a time.
			batch := make([]*SA, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(batch)
				if k == 0 {
					b.StopTimer()
					for j := range batch {
						batch[j] = next()
					}
					b.StartTimer()
				}
				d.InstallInboundFor(names[i%n], peer, batch[k])
			}
		})
	}
}
