package experiments

import (
	"context"
	"fmt"

	"wearlock/internal/acoustic"
	"wearlock/internal/core"
)

// CaseStudyRowResult is one participant's outcome.
type CaseStudyRowResult struct {
	Participant string
	Grip        string
	Successes   int
	Attempts    int
	NLOSFlagged int
}

// CaseStudyResult holds the five-participant case study.
type CaseStudyResult struct {
	Rows []CaseStudyRowResult
	// AverageSuccessRate over all participants (paper: ~90% after the
	// NLOS relaxation and the loosened-grip retry).
	AverageSuccessRate float64
}

// CaseStudy reproduces the classroom case study of Sec. VI: five users,
// ten attempts each, with the grips the paper observed — the participant
// who first covered the speaker (and then loosened the grip), one holding
// phone and watch in different hands, one using the watch hand, and two
// nominal users. NLOS detection relaxes the BER requirement for
// body-blocked grips, which is what rescues the same-hand participant.
func CaseStudy(scale Scale, seed int64) (*CaseStudyResult, error) {
	attempts := scale.trials(5, 10)
	res := &CaseStudyResult{}

	participants := []struct {
		name string
		grip string
		sc   func() core.Scenario
	}{
		{"P1", "loosened grip (was covering speaker)", func() core.Scenario {
			sc := classroomScenario()
			return sc
		}},
		{"P2", "different hands", func() core.Scenario {
			sc := classroomScenario()
			sc.Distance = 0.35
			return sc
		}},
		{"P3", "same hand (watch hand)", func() core.Scenario {
			sc := classroomScenario()
			sc.SameHand = true
			return sc
		}},
		{"P4", "nominal", classroomScenario},
		{"P5", "nominal", classroomScenario},
	}

	var rates []float64
	for i, p := range participants {
		cfg := core.DefaultConfig()
		cfg.OTPKey = _otpKey
		// Participants sit still in a classroom; the motion filter's
		// continue-zone applies, so leave filters on as deployed.
		sys, err := core.NewSystem(cfg, newRNG(seed*100+int64(i)))
		if err != nil {
			return nil, err
		}
		row := CaseStudyRowResult{Participant: p.name, Grip: p.grip, Attempts: attempts}
		for a := 0; a < attempts; a++ {
			r, err := sys.Unlock(context.Background(), p.sc(), nil)
			if err != nil {
				return nil, err
			}
			if r.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
			if r.Unlocked {
				row.Successes++
			}
			if r.NLOSDetected {
				row.NLOSFlagged++
			}
		}
		rates = append(rates, float64(row.Successes)/float64(row.Attempts))
		res.Rows = append(res.Rows, row)
	}
	res.AverageSuccessRate = mean(rates)
	return res, nil
}

// CoveredSpeakerTrial reproduces the case study's first observation: with
// the speaker covered tightly the success rate collapses. Returns
// successes out of attempts.
func CoveredSpeakerTrial(scale Scale, seed int64) (successes, attempts int, err error) {
	attempts = scale.trials(5, 10)
	cfg := core.DefaultConfig()
	cfg.OTPKey = _otpKey
	sys, err := core.NewSystem(cfg, newRNG(seed))
	if err != nil {
		return 0, 0, err
	}
	sc := classroomScenario()
	sc.CoverSpeaker = true
	for a := 0; a < attempts; a++ {
		r, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			return 0, 0, err
		}
		if r.Outcome == core.OutcomeLockedOut {
			sys.ManualUnlock()
		}
		if r.Unlocked {
			successes++
		}
	}
	return successes, attempts, nil
}

func classroomScenario() core.Scenario {
	sc := core.DefaultScenario()
	sc.Name = "classroom"
	sc.Env = acoustic.Classroom()
	return sc
}

// Table renders the case study.
func (r *CaseStudyResult) Table() *Table {
	t := &Table{
		Title:   "Case study — five participants, classroom environment",
		Columns: []string{"participant", "grip", "successes", "NLOS flagged"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Participant,
			row.Grip,
			fmt.Sprintf("%d/%d", row.Successes, row.Attempts),
			fmt.Sprintf("%d", row.NLOSFlagged),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("average success rate %.0f%% (paper: 90%%)", r.AverageSuccessRate*100),
		"paper: covering the speaker gave 3/10; loosening the grip 8/10-10/10; same-hand 4/10 raw, 7/10 after NLOS-relaxed BER",
	)
	return t
}
