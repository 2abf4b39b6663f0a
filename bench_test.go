// Benchmarks regenerating every experiment in DESIGN.md's index
// (E1-E12), one per table/figure/claim of the paper's evaluation, plus
// whole-pipeline micro-benchmarks. Run:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkEx_* executes the full experiment workload per
// iteration (quick mode), so ns/op is the cost of regenerating that
// experiment; the experiment's table itself is printed by cmd/qkdexp.
package qkd

import (
	"testing"
	"time"

	"qkd/internal/experiments"
	"qkd/internal/kms"
	"qkd/internal/rng"
)

func benchExperiment(b *testing.B, run func(uint64, bool) (*experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := run(uint64(i)+1, true)
		if err != nil {
			b.Fatalf("%s: %v", r.ID, err)
		}
		if len(r.Rows()) == 0 {
			b.Fatalf("%s produced no output", r.ID)
		}
	}
}

func BenchmarkE1_EndToEnd(b *testing.B)       { benchExperiment(b, experiments.E1EndToEnd) }
func BenchmarkE2_RateVsDistance(b *testing.B) { benchExperiment(b, experiments.E2RateVsDistance) }
func BenchmarkE3_SiftRatio(b *testing.B)      { benchExperiment(b, experiments.E3SiftRatio) }
func BenchmarkE4_Cascade(b *testing.B)        { benchExperiment(b, experiments.E4Cascade) }
func BenchmarkE5_Defense(b *testing.B)        { benchExperiment(b, experiments.E5Defense) }
func BenchmarkE6_PrivacyAmp(b *testing.B)     { benchExperiment(b, experiments.E6PrivacyAmp) }
func BenchmarkE7_Eve(b *testing.B)            { benchExperiment(b, experiments.E7Eve) }
func BenchmarkE8_IKE(b *testing.B)            { benchExperiment(b, experiments.E8IKE) }
func BenchmarkE9_RelayMesh(b *testing.B)      { benchExperiment(b, experiments.E9RelayMesh) }
func BenchmarkE10_Switches(b *testing.B)      { benchExperiment(b, experiments.E10Switches) }
func BenchmarkE11_Auth(b *testing.B)          { benchExperiment(b, experiments.E11Auth) }
func BenchmarkE12_Transcript(b *testing.B)    { benchExperiment(b, experiments.E12Transcript) }

// Whole-pipeline micro-benchmarks through the public facade.

func fastParams() LinkParams {
	p := DefaultLinkParams()
	p.FiberKm = 0
	p.SystemLossDB = 0
	p.DetectorEff = 1
	p.DarkCountProb = 1e-5
	p.Visibility = 0.96
	return p
}

// BenchmarkPipeline_DistillPerFrame measures the full protocol pipeline
// (sift + cascade + entropy + amplification) per 10k-pulse frame.
func BenchmarkPipeline_DistillPerFrame(b *testing.B) {
	s := NewSession(fastParams(), Config{BatchBits: 4096}, 10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunFrames(1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Alice.Metrics().DistilledBits)/float64(b.N), "keybits/frame")
}

// BenchmarkPipeline_Authenticated is the same pipeline with
// Wegman-Carter authentication on every public-channel message.
func BenchmarkPipeline_Authenticated(b *testing.B) {
	s, err := NewAuthenticatedSession(fastParams(), Config{BatchBits: 4096}, 10000, 1, 1<<22)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunFrames(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVPN_Tunnel1KB measures the assembled VPN dataplane.
func BenchmarkVPN_Tunnel1KB(b *testing.B) {
	n, err := NewVPN(VPNConfig{
		Photonics: fastParams(),
		QKD:       Config{BatchBits: 2048},
		Suite:     SuiteAES128CTR,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(2048, 120); err != nil {
		b.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Send(HostA, HostB, uint32(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13_KDS(b *testing.B)         { benchExperiment(b, experiments.E13KDS) }
func BenchmarkE14_Striping(b *testing.B)    { benchExperiment(b, experiments.E14Striping) }
func BenchmarkE15_Dataplane(b *testing.B)   { benchExperiment(b, experiments.E15Dataplane) }
func BenchmarkE16_Fabric(b *testing.B)      { benchExperiment(b, experiments.E16Fabric) }
func BenchmarkE17_ChaosSoak(b *testing.B)   { benchExperiment(b, experiments.E17ChaosSoak) }
func BenchmarkE18_FlowControl(b *testing.B) { benchExperiment(b, experiments.E18FlowControl) }

// ---------------------------------------------------------------------
// Key delivery service: allocate and claim against a ledger backlog
// ---------------------------------------------------------------------

// BenchmarkKMS_ClaimBacklog is one allocate-and-claim of a 576-bit
// stream block (Stream.Next) while the ledger holds a standing backlog
// of 64 kbit or 8 Mbit, topped up by one block per claim. Ledger upkeep
// must not grow with the backlog: claims retire their range in
// amortized O(1) per bit.
func BenchmarkKMS_ClaimBacklog(b *testing.B) {
	const claimBits = 576
	for _, bc := range []struct {
		name    string
		backlog int
	}{{"64k", 64 << 10}, {"8M", 8 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			svc := kms.New(kms.Config{})
			defer svc.Close()
			st, err := svc.NewStream("bench", claimBits, kms.ClassOTP)
			if err != nil {
				b.Fatal(err)
			}
			gen := rng.NewSplitMix64(1)
			svc.Ingest(gen.Bits(bc.backlog))
			refill := gen.Bits(claimBits)
			b.SetBytes(claimBits / 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.Ingest(refill)
				if _, _, err := st.Next(1, time.Second, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
