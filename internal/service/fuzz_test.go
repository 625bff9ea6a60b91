package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/exp"
)

// FuzzCanonicalJobSpec feeds arbitrary bytes to the job-spec intake the
// way the worker job API and the coordinator's /v2 batches decode them
// (an exp.Job with unknown fields refused). For every spec
// CanonicalJobSpec accepts, canonicalizing the canonical job again must
// return the same job and hash, that hash must be the job's own Hash,
// and ValidateJobSpec must agree with CanonicalJobSpec on every input. A
// spec that re-canonicalized to another hash would be filed under one
// hash by the coordinator and reported under another by the worker.
func FuzzCanonicalJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"circuit":"Adder16","method":"dcgwo","metric":"nmed","budget":0.0244,"scale":"QUICK","seed":0}`,
		`{"circuit":"c880","method":"Ours","metric":"ER","budget":0.05,"scale":"quick","seed":3,"depth_weight":0.8}`,
		`{"circuit":"Max16","method":"sasimi","metric":"er","budget":0.05,"scale":"paper","seed":1,"area_con_ratio":1.0}`,
		`{"circuit":"Adder16","method":"hedals","metric":"NMED","budget":1,"scale":"quick","seed":-2,"population":5,"iterations":1,"vectors":64}`,
		`{"circuit":"verilog:0123456789abcdef","method":"Ours","metric":"ER","budget":0.05,"scale":"quick","seed":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var j exp.Job
		if err := dec.Decode(&j); err != nil {
			return
		}
		canon, hash, err := CanonicalJobSpec(j)
		if verr := ValidateJobSpec(j); (verr == nil) != (err == nil) {
			t.Fatalf("ValidateJobSpec(%+v) = %v, but CanonicalJobSpec = %v", j, verr, err)
		}
		if err != nil {
			return
		}
		again, hash2, err := CanonicalJobSpec(canon)
		if err != nil {
			t.Fatalf("canonical job %+v is rejected: %v", canon, err)
		}
		if again != canon || hash2 != hash {
			t.Fatalf("canonicalizing twice moved the spec:\n%+v %s\n%+v %s", canon, hash, again, hash2)
		}
		if h, err := canon.Hash(); err != nil || h != hash {
			t.Fatalf("canonical job hashes to %s (err %v), CanonicalJobSpec said %s", h, err, hash)
		}
	})
}

// FuzzV2Request feeds arbitrary bytes to the /v2/jobs intake the way
// handleV2Submit decodes them (a Request with unknown fields refused) and
// validates the result. Validation must never panic, and for every
// request it accepts, the persisted form (request, the one WAL replay
// resubmits) must validate to the same hash and persist to itself, so a
// replayed submission is filed under the hash its client was given.
func FuzzV2Request(f *testing.F) {
	upload := "module m (a, b, y);\n  input a;\n  input b;\n  output y;\n  NAND2X1 g (.A(a), .B(b), .Y(y));\nendmodule\n"
	vq, _ := json.Marshal(upload)
	for _, seed := range []string{
		`{"circuit":"Adder16","method":"dcgwo","metric":"nmed","budget":0.0244,"scale":"QUICK"}`,
		`{"circuit":"c880","method":"Ours","metric":"ER","budget":0.05,"seed":3,"depth_weight":0.8}`,
		`{"circuit":"Max16","method":"sasimi","metric":"er","budget":1,"scale":"paper","area_con_ratio":1.5}`,
		`{"verilog":` + string(vq) + `,"metric":"ER","budget":0.05}`,
		`{"circuit":"c880","verilog":` + string(vq) + `,"metric":"ER","budget":0.05}`,
		`{"metric":"ER","budget":0.05}`,
		`{"circuit":"c880","metric":"ER","budget":0.05,"unknown":1}`,
		`{"circuit":"nope","metric":"ER","budget":0.05}`,
		fmt.Sprintf(`{"circuit":"Adder16","metric":"NMED","budget":1,"depth_weight":1,"population":%d,"iterations":%d,"vectors":%d}`, MaxPopulation, MaxIterations, MaxVectors),
		fmt.Sprintf(`{"circuit":"Adder16","metric":"NMED","budget":0.05,"population":%d}`, MaxPopulation+1),
		fmt.Sprintf(`{"circuit":"Adder16","metric":"NMED","budget":0.05,"iterations":%d}`, MaxIterations+1),
		fmt.Sprintf(`{"circuit":"Adder16","metric":"NMED","budget":0.05,"vectors":%d}`, MaxVectors+1),
		`{"circuit":"Adder16","metric":"NMED","budget":0.05,"population":5,"iterations":1,"vectors":64}`,
		`{"circuit":"Adder16","metric":"NMED","budget":0.05,"population":4,"vectors":63}`,
		`{"circuit":"Adder16","metric":"NMED","budget":1.0000000000000002,"depth_weight":1.0000000000000002}`,
		`{"circuit":"Adder16","metric":"NMED","budget":5e-324,"area_con_ratio":-5e-324,"seed":-9223372036854775808}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		sp, err := validate(req)
		if err != nil {
			return
		}
		persisted := sp.request()
		replayed, err := validate(persisted)
		if err != nil {
			t.Fatalf("the persisted form %+v of %+v is rejected: %v", persisted, req, err)
		}
		if replayed.hash != sp.hash {
			t.Fatalf("the persisted form of %+v validates to hash %s, accepted as %s", req, replayed.hash, sp.hash)
		}
		if again := replayed.request(); again != persisted {
			t.Fatalf("the persisted form moved on replay:\n%+v\n%+v", persisted, again)
		}
	})
}
