package pbft

import (
	"fmt"

	"hybster/internal/telemetry"
)

// pillarMetrics holds one pillar's metric handles (pillar-labeled).
type pillarMetrics struct {
	preprepares *telemetry.Counter
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
		preprepares: tel.Counter("hybster_pbft_preprepares_total", "own proposals multicast (PRE-PREPARE sent)", pl),
		prepares:    tel.Counter("hybster_pbft_prepares_total", "backup acknowledgments multicast (PREPARE sent)", pl),
		commits:     tel.Counter("hybster_pbft_commits_sent_total", "prepared instances acknowledged (COMMIT sent)", pl),
		committed:   tel.Counter("hybster_pbft_committed_total", "instances committed and handed to execution", pl),
		retransmits: tel.Counter("hybster_pbft_retransmits_total", "stalled instances re-multicast by the tick handler", pl),
	}
}
