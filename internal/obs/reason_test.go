package obs

import "testing"

func TestReasonNames(t *testing.T) {
	want := map[Reason]string{
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
	for r := ReasonNone; r < NumReasons; r++ {
		if _, ok := want[r]; !ok {
			t.Errorf("Reason(%d) %q has no pinned wire name", r, r.String())
		}
	}
	for r, name := range want {
		if r.String() != name {
			t.Errorf("Reason(%d).String() = %q, want %q", r, r.String(), name)
		}
	}
	if Reason(200).String() != "" {
		t.Errorf("out-of-range reason must stringify empty")
	}
	for r := ReasonUncacheable; r <= ReasonSkeletonUncertified; r++ {
		if !r.IsMiss() {
			t.Errorf("%v must be a miss reason", r)
		}
	}
	for _, r := range []Reason{ReasonNone, ReasonPrivatePartition, ReasonSingletonGroup, ReasonAblation} {
		if r.IsMiss() {
			t.Errorf("%v must not be a miss reason", r)
		}
	}
}
