package trace

import "sort"

// Lane canonicalization. Most span identity fields describe the
// simulation itself, but one is only a label: which *lane* serviced a
// batch when several interchangeable peers could have — whether batch 17
// lands in consumer queue 0 or queue 2, and therefore which GPU device
// runs its step. The peers are symmetric, so every *timing* in the trace
// is the same under any such labeling. (When the kernel still let peers
// race across threads, the Go scheduler picked the labels, and they
// permuted between runs.)
//
// Canonicalize re-derives those labels from the label-erased span multiset
// itself: per tenant and node, batch journeys are packed onto lanes
// greedily in canonical order (each journey takes the lowest-numbered lane
// that is free for its occupancy interval), and device-occupancy spans are
// packed the same way. The result is a valid lane assignment — journeys
// sharing a lane never overlap, and no more lanes are used than were
// genuinely concurrent — that is a pure function of the span set, so the
// exported trace does not depend on how peers were labeled.

// laneStage reports whether s's Key is a consumer-lane label subject to
// canonicalization. These stages link to a specific batch via (Tenant,
// Node, Seq) plus the recorded label (see entityKey), so relabeling keeps
// each journey's stages on one lane.
func laneStage(s Stage) bool {
	switch s {
	case StageAssemble, StageQueueWait,
		StageDataWait, StageCopy, StageGPUStep,
		StageBarrierWait, StageNetworkWait, StageDowntime:
		return true
	}
	return false
}

// occStage reports whether s occupies its consumer lane exclusively. The
// packing constraint uses only these: an assemble or queue-wait span
// legitimately overlaps the lane's previous step (the constructor builds
// batch i+1 while batch i trains), so they ride along with their journey
// without constraining it.
func occStage(s Stage) bool {
	switch s {
	case StageDataWait, StageCopy, StageGPUStep,
		StageBarrierWait, StageNetworkWait, StageDowntime:
		return true
	}
	return false
}

// Canonicalize rewrites scheduler-dependent lane labels in place: the Key
// of consumer-stage spans (per batch journey) and the Key and Seq of
// device-occupancy spans. Call it on the full span set of a run — the
// assignment is a pure function of that set. Snapshot applies it
// automatically.
func Canonicalize(spans []Span) {
	canonConsumers(spans)
	canonDevices(spans)
}

type groupKey struct {
	tenant int32
	node   int32
}

// entityKey identifies one batch journey within a (tenant, node) group.
// Seq alone is not enough: a distributed rank with several GPUs consumes
// the same round on every GPU concurrently, so the journeys of one round
// share Seq and differ only in their recorded lane label. Including that
// label keeps concurrent same-seq journeys apart; the label itself is
// still erased by the relabeling below.
type entityKey struct {
	seq int64
	key int64
}

// canonConsumers packs each (tenant, node)'s batch journeys onto lanes.
func canonConsumers(spans []Span) {
	type entity struct {
		seq              int64
		occStart, occEnd int64 // exclusive-occupancy interval, ns
		hasOcc           bool
		spans            []int
		erased           []Span // memoized label-erased sorted spans (tiebreak)
	}
	groups := map[groupKey]map[entityKey]*entity{}
	for i, s := range spans {
		if !laneStage(s.Stage) {
			continue
		}
		g := groupKey{s.Tenant, s.Node}
		ents := groups[g]
		if ents == nil {
			ents = map[entityKey]*entity{}
			groups[g] = ents
		}
		ek := entityKey{s.Seq, s.Key}
		e := ents[ek]
		if e == nil {
			e = &entity{seq: s.Seq}
			ents[ek] = e
		}
		e.spans = append(e.spans, i)
		start, end := int64(s.Start), int64(s.End)
		if occStage(s.Stage) {
			if !e.hasOcc || start < e.occStart {
				e.occStart = start
			}
			if !e.hasOcc || end > e.occEnd {
				e.occEnd = end
			}
			e.hasOcc = true
		} else if !e.hasOcc && end > e.occEnd {
			// Journey never consumed (early stop): a zero-length slot at its
			// last event keeps it packable without claiming lane time.
			e.occStart, e.occEnd = end, end
		}
	}
	// erasedSpans memoizes an entity's spans with the lane label zeroed,
	// canonically sorted — the content fingerprint used to order entities
	// that tie on interval and seq. Two entities that also tie on content
	// are interchangeable: either lane assignment relabels the span set
	// identically, so the unstable order between them cannot leak.
	erasedSpans := func(e *entity) []Span {
		if e.erased == nil {
			e.erased = make([]Span, 0, len(e.spans))
			for _, i := range e.spans {
				s := spans[i]
				s.Key = 0
				e.erased = append(e.erased, s)
			}
			Sort(e.erased)
		}
		return e.erased
	}
	for _, ents := range groups {
		order := make([]*entity, 0, len(ents))
		for _, e := range ents {
			order = append(order, e)
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			switch {
			case a.occStart != b.occStart:
				return a.occStart < b.occStart
			case a.occEnd != b.occEnd:
				return a.occEnd < b.occEnd
			case a.seq != b.seq:
				return a.seq < b.seq
			default:
				ea, eb := erasedSpans(a), erasedSpans(b)
				if len(ea) != len(eb) {
					return len(ea) < len(eb)
				}
				for k := range ea {
					if c := Compare(ea[k], eb[k]); c != 0 {
						return c < 0
					}
				}
				return false
			}
		})
		var busyUntil []int64
		for _, e := range order {
			lane := -1
			for i, busy := range busyUntil {
				if busy <= e.occStart {
					lane = i
					break
				}
			}
			if lane < 0 {
				lane = len(busyUntil)
				busyUntil = append(busyUntil, 0)
			}
			busyUntil[lane] = e.occEnd
			for _, i := range e.spans {
				spans[i].Key = int64(lane)
			}
		}
	}
}

// canonDevices packs each (tenant, node)'s device-occupancy spans onto
// device lanes and renumbers Seq as the span's position within its lane.
func canonDevices(spans []Span) {
	groups := map[groupKey][]int{}
	for i, s := range spans {
		if s.Stage != StageDeviceRun {
			continue
		}
		g := groupKey{s.Tenant, s.Node}
		groups[g] = append(groups[g], i)
	}
	for _, idxs := range groups {
		sort.Slice(idxs, func(i, j int) bool {
			a, b := spans[idxs[i]], spans[idxs[j]]
			switch {
			case a.Start != b.Start:
				return a.Start < b.Start
			case a.End != b.End:
				return a.End < b.End
			default:
				return a.Detail < b.Detail
			}
		})
		var busyUntil []int64
		var laneSeq []int64
		for _, i := range idxs {
			s := &spans[i]
			lane := -1
			for l, busy := range busyUntil {
				if busy <= int64(s.Start) {
					lane = l
					break
				}
			}
			if lane < 0 {
				lane = len(busyUntil)
				busyUntil = append(busyUntil, 0)
				laneSeq = append(laneSeq, 0)
			}
			busyUntil[lane] = int64(s.End)
			s.Key = int64(lane)
			s.Seq = laneSeq[lane]
			laneSeq[lane]++
		}
	}
}
