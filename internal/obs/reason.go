package obs

// Reason is a compact decision-provenance code explaining why the
// serving stack made a negative decision: why a lookup missed every
// cache, or why a batch/coalesce member ran a dedicated engine search
// instead of joining a shared run. Reasons ride Results as a single
// byte, surface as the "explain" field on miss responses, and are
// tallied per pool (/statsz, /metricsz).
type Reason uint8

const (
	// ReasonNone: no negative decision (cache hit, shared answer).
	ReasonNone Reason = iota

	// Miss reasons — why no cache could answer.

	// ReasonUncacheable: an endpoint lies outside every partition, so
	// the query has no cache identity at all.
	ReasonUncacheable
	// ReasonNoExactEntry: the exact-key cache had no entry and no
	// window store was consulted (window cache off or absent).
	ReasonNoExactEntry
	// ReasonWindowFamilyAbsent: the window store holds no validity
	// series for this endpoint family at this speed.
	ReasonWindowFamilyAbsent
	// ReasonOutsideWindows: the family exists but the departure time
	// falls outside every stored validity window.
	ReasonOutsideWindows
	// ReasonSkeletonUncertified: a partition-pair skeleton family was
	// stored for the query's slot, but the composition could not be
	// certified byte-identical to a fresh search (no finite chain, the
	// composed walk crosses the slot boundary, or the best chain is
	// ambiguous), so the query fell through to an engine.
	ReasonSkeletonUncertified

	// Solo reasons — why a member ran outside a shared engine run.

	// ReasonPrivatePartition: an endpoint partition a shared run cannot
	// expand through blocked sharing: a private one (the paper's privacy
	// rule) or a stairwell, whose doors span floors.
	ReasonPrivatePartition
	// ReasonSingletonGroup: the member's endpoint family had nothing
	// to share with (singleton family, or caches absorbed the rest of
	// the group).
	ReasonSingletonGroup
	// ReasonAblation: the SinglePartitionExpansion ablation forbids
	// shared expansion, forcing per-query fallback searches.
	ReasonAblation

	// NumReasons sizes dense per-reason counter arrays.
	NumReasons
)

var reasonNames = [NumReasons]string{
	ReasonNone:                "",
	ReasonUncacheable:         "uncacheable",
	ReasonNoExactEntry:        "no_exact_entry",
	ReasonWindowFamilyAbsent:  "window_family_absent",
	ReasonOutsideWindows:      "outside_windows",
	ReasonSkeletonUncertified: "skeleton_uncertified",
	ReasonPrivatePartition:    "private_partition",
	ReasonSingletonGroup:      "singleton_group",
	ReasonAblation:            "ablation",
}

// String returns the stable wire name ("" for ReasonNone). The names
// are part of the /statsz and "explain" vocabulary; never rename them.
// The numbers never reach the wire.
func (r Reason) String() string {
	if r < NumReasons {
		return reasonNames[r]
	}
	return ""
}

// IsMiss reports whether r explains a cache miss (as opposed to a
// solo-run decision).
func (r Reason) IsMiss() bool {
	return r >= ReasonUncacheable && r <= ReasonSkeletonUncertified
}
