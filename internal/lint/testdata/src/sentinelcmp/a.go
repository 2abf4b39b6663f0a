// Corpus for the sentinelcmp analyzer: sentinel errors must be
// matched with errors.Is, never by identity.
package sentinelcmp

import (
	"errors"
	"fmt"

	"keypool"
	"kms"
)

var ErrExpired = errors.New("sa expired")

// ErrCount is named like a sentinel but is not an error; identity
// comparison is fine.
var ErrCount int

func check(err error) string {
	// The historical shape: gateways wrap ipsec's expiry sentinel with
	// SPI context, so this identity match silently stopped firing.
	if err == ErrExpired { // want `error compared to sentinel ErrExpired with ==`
		return "expired"
	}
	if err != ErrExpired { // want `error compared to sentinel ErrExpired with !=`
		return "other"
	}
	return ""
}

func checkImported(err error) bool {
	return err == keypool.ErrExhausted // want `error compared to sentinel ErrExhausted with ==`
}

func checkSwitch(err error) string {
	switch err {
	case kms.ErrOverload: // want `switch case compares error to sentinel ErrOverload by identity`
		return "overload"
	default:
		return "other"
	}
}

// --- clean ---

func okIs(err error) bool {
	return errors.Is(err, ErrExpired) || errors.Is(err, keypool.ErrExhausted)
}

func okNil(err error) bool {
	return err == nil || err != nil
}

func okNonError(n int) bool {
	return n == ErrCount
}

func okLocalShadow(err error) bool {
	// A local variable named like a sentinel is not a package-level
	// sentinel; comparing against it is unrelated to wrapping.
	ErrLocal := fmt.Errorf("local")
	return err == ErrLocal
}

func okSuppressed(err error) bool {
	//lint:ignore sentinelcmp exercising the suppression directive itself
	return err == ErrExpired
}
