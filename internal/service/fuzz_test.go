package service

import (
	"bytes"
	"encoding/json"
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
