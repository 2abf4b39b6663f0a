package lint

// All returns the full analyzer suite in the order findings are
// conventionally listed. The set encodes the repo's standing
// invariants — reservation lifecycle, pad hygiene, wrapped-sentinel
// matching, atomic access discipline, and deterministic-replay
// purity — as machine-checked rules.
func All() []*Analyzer {
	return []*Analyzer{
		ReservePair,
		PadReuse,
		SentinelCmp,
		AtomicField,
		DetRand,
		KeyTaint,
		LockOrder,
	}
}
