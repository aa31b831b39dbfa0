package main

import (
	"fmt"
	"slices"

	"repro/internal/game"
	"repro/internal/parallel"
	"repro/internal/service"
)

// replay checks a finished job against the rules of its domain: every move
// of the sequence is legal where it is played, the game ends there, and
// the final position scores what the job reported. A first-move job's
// sequence is its one chosen move, and its score that of a game played on
// from it, which only the solo re-run can check.
func replay(st service.JobStatus) error {
	pos, err := st.Spec.Root()
	if err != nil {
		return err
	}
	var buf []game.Move
	for i, m := range st.Sequence {
		buf = pos.LegalMoves(buf[:0])
		if !slices.Contains(buf, m) {
			return fmt.Errorf("%s: move %d (%d) is not legal", st.ID, i, m)
		}
		pos.Play(m)
	}
	if st.Spec.FirstMoveOnly {
		if len(st.Sequence) != 1 {
			return fmt.Errorf("%s: first-move job returned %d moves", st.ID, len(st.Sequence))
		}
		return nil
	}
	if !pos.Terminal() {
		return fmt.Errorf("%s: sequence of %d moves does not end the game", st.ID, len(st.Sequence))
	}
	if pos.Score() != st.Score {
		return fmt.Errorf("%s: replayed score %v, reported %v", st.ID, pos.Score(), st.Score)
	}
	return nil
}

// Shape of the solo reference runs. Results are bit-identical per seed on
// any shape, so one unlike every workload's pool makes the check stronger.
const (
	soloClients = 3
	soloMedians = 2
)

// solo re-runs a finished job's spec alone through parallel.RunWall and
// compares the two results.
func solo(st service.JobStatus) error {
	cfg, err := st.Spec.Config()
	if err != nil {
		return err
	}
	ref, err := parallel.RunWall(soloClients, soloMedians, cfg)
	if err != nil {
		return fmt.Errorf("%s: solo run: %w", st.ID, err)
	}
	return matches(st, ref)
}

// matches compares a served job's result with a reference run of the same
// spec field by field.
func matches(st service.JobStatus, ref parallel.Result) error {
	switch {
	case ref.Score != st.Score:
		return fmt.Errorf("%s: score %v, reference %v", st.ID, st.Score, ref.Score)
	case ref.Steps != st.Steps:
		return fmt.Errorf("%s: steps %d, reference %d", st.ID, st.Steps, ref.Steps)
	case ref.Jobs != st.Rollouts:
		return fmt.Errorf("%s: rollouts %d, reference %d", st.ID, st.Rollouts, ref.Jobs)
	case ref.WorkUnits != st.WorkUnits:
		return fmt.Errorf("%s: work units %d, reference %d", st.ID, st.WorkUnits, ref.WorkUnits)
	case !slices.Equal(ref.Sequence, st.Sequence):
		return fmt.Errorf("%s: sequence differs from the reference", st.ID)
	}
	return nil
}

// soloSample picks the fixed sample of done jobs to re-run solo: the first
// done job of each domain, then every stride-th, at most limit in all.
func soloSample(done []*jobRec, stride, limit int) map[*jobRec]bool {
	out := map[*jobRec]bool{}
	seen := map[string]bool{}
	for i, j := range done {
		first := !seen[j.spec.Domain]
		seen[j.spec.Domain] = true
		if (first || i%stride == 0) && len(out) < limit {
			out[j] = true
		}
	}
	return out
}

// checkJobs replays every done job and re-runs the sampled ones solo. It
// returns at most one error per job, so the count is the jobs that failed.
func checkJobs(done []*jobRec, sample map[*jobRec]bool) []error {
	var errs []error
	for _, j := range done {
		err := replay(j.st)
		if err == nil && sample[j] {
			err = solo(j.st)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
