package core

import (
	"fmt"

	"hybster/internal/telemetry"
)

// pillarMetrics holds one pillar's metric handles (pillar-labeled).
type pillarMetrics struct {
	prepares    *telemetry.Counter
	commits     *telemetry.Counter
	committed   *telemetry.Counter
	retransmits *telemetry.Counter
}

func newPillarMetrics(tel *telemetry.Telemetry, idx uint32) pillarMetrics {
	if tel == nil {
		return pillarMetrics{}
	}
	pl := telemetry.L("pillar", fmt.Sprint(idx))
	return pillarMetrics{
		prepares:    tel.Counter("hybster_core_prepares_total", "own proposals certified (PREPARE sent)", pl),
		commits:     tel.Counter("hybster_core_commits_sent_total", "foreign proposals acknowledged (COMMIT sent)", pl),
		committed:   tel.Counter("hybster_core_committed_total", "instances committed and handed to execution", pl),
		retransmits: tel.Counter("hybster_core_retransmits_total", "stalled instances re-multicast by the tick handler", pl),
	}
}
