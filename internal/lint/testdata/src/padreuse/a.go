// Corpus for the padreuse analyzer: consumed pad is burned exactly
// once, gains no long-lived aliases, and is dead after a wipe.
package padreuse

import (
	"keypool"
	"kms"
)

type sink struct{ key []byte }

var global []byte

func use(p []byte)          {}
func zeroBytes(p []byte)    { clear(p) }
func freshPad(n int) []byte { return make([]byte, n) }

// --- rule 1: pad re-burn (the historical relay shape: a failed
// delivery consumed pad that had already been refunded) ---

func reburnAfterRelease(rv *keypool.Reservation) {
	rv.Release()
	pad, _ := rv.Consume(8) // want `pad re-burn: rv.Consume after rv voided the reservation`
	_ = pad
}

func reburnAfterClose(rv *keypool.Reservation) {
	rv.Close()
	if pad, err := rv.Consume(8); err == nil { // want `pad re-burn: rv.Consume after rv voided the reservation`
		use(pad)
	}
}

func okConsumeThenRelease(rv *keypool.Reservation) {
	pad, _ := rv.Consume(8)
	use(pad)
	rv.Release()
}

// Release on an exclusive branch does not void the straight-line path.
func okBranchRelease(rv *keypool.Reservation, fail bool) {
	if fail {
		rv.Release()
		return
	}
	pad, _ := rv.Consume(8)
	use(pad)
}

// Voided on both arms of an if/else: every path into the Consume has
// refunded or discarded the reservation.
func reburnAfterBothArms(rv *keypool.Reservation, fail bool) {
	if fail {
		rv.Release()
	} else {
		rv.Close()
	}
	pad, _ := rv.Consume(8) // want `pad re-burn: rv.Consume after rv voided the reservation`
	_ = pad
}

// --- rule 2: retained alias of consumed key material ---

func retainField(rv *keypool.Reservation, s *sink) {
	pad, _ := rv.Consume(8)
	s.key = pad // want `consumed key material pad .* assigned to field key`
}

func retainGlobal(rv *keypool.Reservation) {
	pad, _ := rv.Consume(8)
	global = pad // want `consumed key material pad .* assigned to package-level variable global`
}

func retainElement(rv *keypool.Reservation, pads [][]byte) {
	pad, _ := rv.Consume(8)
	pads[0] = pad // want `consumed key material pad .* stored into a slice or map element`
}

func retainComposite(rv *keypool.Reservation) sink {
	pad, _ := rv.Consume(8)
	return sink{key: pad} // want `consumed key material pad .* stored in a composite literal`
}

func retainAppend(rv *keypool.Reservation, log [][]byte) [][]byte {
	pad, _ := rv.Consume(8)
	return append(log, pad) // want `consumed key material pad .* appended into a longer-lived slice`
}

func retainFromKMS(s *kms.Service) {
	pad := s.Claim(16)
	global = pad // want `consumed key material pad .* assigned to package-level variable global`
}

func okExplicitCopy(rv *keypool.Reservation, s *sink) {
	pad, _ := rv.Consume(8)
	s.key = append([]byte(nil), pad...) // byte copy: the sanctioned idiom
}

func okLocalUse(s *kms.Service) byte {
	pad := kms.Withdraw(16)
	use(pad)
	return pad[0]
}

func okNotKeyMaterial(s *sink) {
	buf := freshPad(16) // not a keypool/kms source: untracked
	s.key = buf
}

// --- rule 3: use after wipe ---

func useAfterClear(rv *keypool.Reservation) byte {
	pad, _ := rv.Consume(8)
	use(pad)
	clear(pad)
	return pad[0] // want `use of pad after it was wiped`
}

func useAfterZeroHelper(pad []byte) byte {
	zeroBytes(pad)
	return pad[0] // want `use of pad after it was wiped`
}

func okReassignAfterWipe(rv *keypool.Reservation) byte {
	pad, _ := rv.Consume(8)
	clear(pad)
	pad, _ = rv.Consume(8)
	return pad[0]
}

func okWipeLast(rv *keypool.Reservation) {
	pad, _ := rv.Consume(8)
	use(pad)
	clear(pad)
}

// Wiped on both arms of an if/else: the read sees zeroes on every path.
func useAfterClearBothArms(pad []byte, short bool) byte {
	if short {
		clear(pad)
	} else {
		clear(pad)
	}
	return pad[0] // want `use of pad after it was wiped`
}

// Wiped on one arm only: the read may see key material.
func okWipeOneArm(pad []byte, done bool) byte {
	if done {
		clear(pad)
	}
	return pad[0]
}
