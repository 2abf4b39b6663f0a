// Command qkdvpn brings up the complete Fig. 2 system — two enclaves,
// two gateways, IKE with Qblock KEYMAT, one quantum link — and pushes
// user traffic through the tunnel, printing the racoon-style IKE
// transcript (the shape of the paper's Fig. 12).
//
// Examples:
//
//	qkdvpn                       # AES tunnel with QKD reseeding
//	qkdvpn -suite otp            # one-time-pad tunnel
//	qkdvpn -life-bytes 2000      # aggressive rollover
//	qkdvpn -flow                 # flow-controlled background rekeys
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qkd/internal/core"
	"qkd/internal/ipsec"
	"qkd/internal/kms"
	"qkd/internal/photonics"
	"qkd/internal/vpn"
)

func main() {
	suite := flag.String("suite", "aes", "tunnel cipher: aes | 3des | otp")
	lifeBytes := flag.Uint64("life-bytes", 0, "SA byte lifetime (0 = unbounded)")
	lifeSecs := flag.Int("life-seconds", 0, "SA time lifetime (0 = unbounded)")
	packets := flag.Int("packets", 20, "user packets to send")
	km := flag.Float64("km", 0, "quantum link fiber length")
	seed := flag.Uint64("seed", 2003, "simulation seed")
	useFlow := flag.Bool("flow", false, "pace background rekeys with a flow credit controller on the KDS pressure signal")
	flag.Parse()

	var cs ipsec.CipherSuite
	switch *suite {
	case "aes":
		cs = ipsec.SuiteAES128CTR
	case "3des":
		cs = ipsec.Suite3DESCBC
	case "otp":
		cs = ipsec.SuiteOTP
	default:
		fmt.Fprintf(os.Stderr, "unknown suite %q\n", *suite)
		os.Exit(2)
	}

	params := photonics.DefaultParams()
	params.FiberKm = *km
	if *km == 0 {
		// Short bench so the demo distills in moments.
		params.SystemLossDB = 0
		params.DetectorEff = 1
		params.DarkCountProb = 1e-5
		params.Visibility = 0.96
	}

	n, err := vpn.New(vpn.Config{
		Photonics: params,
		QKD:       core.Config{BatchBits: 2048},
		Suite:     cs,
		Life: ipsec.Lifetime{
			Bytes:    *lifeBytes,
			Duration: time.Duration(*lifeSecs) * time.Second,
		},
		OTPBits:     16384,
		FlowControl: *useFlow,
		Seed:        *seed,
		IKELogA:     prefixWriter("alice-gw racoon: "),
		IKELogB:     prefixWriter("bob-gw   racoon: "),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer n.Close()

	fmt.Println("distilling initial key material over the quantum link...")
	need := 3 * 16384
	if cs != ipsec.SuiteOTP {
		need = 4096
	}
	if err := n.DistillKeys(need, 2000); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	am := n.Session.Alice.Metrics()
	fmt.Printf("distilled %d bits (QBER %.1f%%)\n\n", am.DistilledBits, 100*am.LastQBER)

	if err := n.Establish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()

	for i := 1; i <= *packets; i++ {
		msg := fmt.Sprintf("user packet %d through the quantum-keyed tunnel", i)
		got, err := n.SendWithRollover(vpn.HostA, vpn.HostB, uint32(i), []byte(msg))
		if err != nil {
			fmt.Fprintf(os.Stderr, "packet %d: %v\n", i, err)
			os.Exit(1)
		}
		if i == 1 || i == *packets {
			fmt.Printf("delivered %q\n", got)
		}
	}
	st := n.Stats()
	delivered, dropped := st.Delivered, st.Dropped
	fmt.Printf("\n%d packets delivered, %d dropped; tunnel operational over quantum-distilled keys\n",
		delivered, dropped)
	printKDSStatus(n.A.KDS)
}

// printKDSStatus reports the key delivery service's congestion signal
// and per-class scheduler outcomes — the operator's view of whether the
// key budget is keeping up with the tunnel's appetite.
func printKDSStatus(svc *kms.Service) {
	ks := svc.Stats()
	fmt.Printf("kds: pressure %.2f, %d bits deposited, %d bits claimed\n",
		ks.Pressure, ks.DepositedBits, ks.ClaimedBits)
	for c := kms.Class(0); c < kms.NumClasses; c++ {
		fmt.Printf("kds: class %-5s granted %d (%d bits), shed %d, degraded %d, expired %d\n",
			c, ks.Granted[c], ks.GrantedBits[c], ks.Shed[c], ks.Degraded[c], ks.Expired[c])
	}
}

// prefixWriter prints each log line with a prefix, mimicking syslog.
type prefixWriter string

func (p prefixWriter) Write(b []byte) (int, error) {
	fmt.Printf("%s%s", string(p), b)
	return len(b), nil
}
