package main

import "sort"

// frameToSA times each SA pair installed on site A within [from, to).
// Its reference point is the start of the deposit (frame or pre-charge)
// that completed the pair's key, when the exchange had to wait for that
// deposit — it finished after the previous exchange ended. Otherwise the
// key was already waiting in the ledger, and the reference is the start
// of the exchange itself. deps must be in deposit order.
func frameToSA(deps []deposit, evs []ikeEvent, from, to int64) *hist {
	h := &hist{}
	var begin, lastInstall, prevEnd int64
	for _, ev := range evs {
		if !ev.install {
			begin, prevEnd = ev.at, lastInstall
			continue
		}
		lastInstall = ev.at
		if ev.at < from || ev.at >= to {
			continue
		}
		ref := begin
		i := sort.Search(len(deps), func(i int) bool { return deps[i].cum >= ev.cursor })
		if i < len(deps) && deps[i].end > prevEnd {
			ref = deps[i].start
		}
		h.record(uint64(ev.at - ref))
	}
	return h
}

// exchanges summarizes site A's phase-2 exchanges that started within
// [from, to): their durations from start to last install, and how many
// tunnels they installed.
func exchanges(evs []ikeEvent, from, to int64) (durs *hist, started, installed uint64) {
	durs = &hist{}
	begin, last := int64(-1), int64(-1)
	flush := func() {
		if begin >= 0 && last >= 0 {
			durs.record(uint64(last - begin))
		}
	}
	for _, ev := range evs {
		if !ev.install {
			flush()
			begin, last = -1, -1
			if ev.at >= from && ev.at < to {
				begin = ev.at
				started++
			}
			continue
		}
		if begin >= 0 {
			last = ev.at
			installed++
		}
	}
	flush()
	return durs, started, installed
}
