package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec drives the submission path of POST /v1/jobs — JSON bytes
// decoded strictly into a JobSpec, then JobSpec.Config — with arbitrary
// bodies. It must never panic, and every spec it accepts must yield a
// distributable level and a root position whose LegalMoves can be called.
// Seeded with the repository benchmark's job shapes.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"domain":"sudoku","box":2,"level":2,"seed":1,"memorize":true}`,
		`{"domain":"samegame","width":5,"height":5,"colors":3,"board_seed":7,"level":2,"seed":3,"memorize":true}`,
		`{"domain":"morpion","variant":"5D","level":2,"seed":5,"memorize":true,"first_move_only":true}`,
		`{"domain":"morpion","variant":"4t","speculate":-1,"cache":true,"deadline_ms":-5}`,
		`{"domain":" SameGame ","width":32,"height":1,"colors":9,"evaluator":"uniform"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		cfg, err := spec.Config()
		if err != nil {
			return
		}
		if cfg.Level < 2 || cfg.Root == nil {
			t.Fatalf("accepted spec %+v gave level %d, root %v", spec, cfg.Level, cfg.Root)
		}
		cfg.Root.LegalMoves(nil)
	})
}
