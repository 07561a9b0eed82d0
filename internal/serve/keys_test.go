package serve

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var record = flag.Bool("record", false, "TestEvaluateKeysGolden rewrites testdata/evaluate_keys.golden")

// keyRequests cover every family, named and explicit transformers, a
// named graph model, defaulted and explicit samples and micro, the micro
// clamp, the precision synonym and the cluster defaults.
var keyRequests = []string{
	`{"family":"karma-dp","model":"megatron-0.3B","gpus":128,"batch":128}`,
	`{"family":"karma-dp","model":"resnet50","gpus":64,"batch":32,"samples":1281167}`,
	`{"family":"karma-dp","transformer":{"name":"tiny","hidden":256,"heads":4,"layers":2,"seq":128,"vocab":1000},"gpus":8,"batch":4}`,
	`{"family":"karma-dp","model":"megatron-2.5B","gpus":128,"batch":4,"backend":"planned","zero_shard":true,"update_on_device":true,"cluster":{"nodes":64,"topology":"fattree:2"}}`,
	`{"family":"karma-dp","model":"turing-nlg-17B","gpus":512,"batch":2,"precision":"mixed","cluster":{"preset":"abci","topology":"abci"}}`,
	`{"family":"dp","model":"resnet50","gpus":64,"batch":32}`,
	`{"family":"dp","model":"megatron-0.3B","gpus":16,"batch":8,"precision":"fp32","samples":7200000}`,
	`{"family":"mp+dp","model":"megatron-2.5B","mp":2,"gpus":128,"batch":4,"phased":true,"ckpt":true}`,
	`{"family":"mp+dp","transformer":{"hidden":512,"heads":8,"layers":4,"seq":256,"vocab":5000},"mp":4,"gpus":32,"batch":4,"micro":3,"stages":2}`,
	`{"family":"zero","model":"turing-nlg-17B","mp":16,"gpus":512,"batch":2,"precision":"fp16","ckpt":true}`,
	`{"family":"zero","transformer":{"name":"tiny","hidden":256,"heads":4,"layers":2,"seq":128,"vocab":1000},"mp":2,"gpus":8,"batch":2,"precision":"mixed","backend":"analytic"}`,
	`{"family":"pipeline","model":"megatron-2.5B","stages":4,"gpus":64,"batch":16}`,
	`{"family":"pipeline","model":"megatron-2.5B","stages":4,"gpus":64,"batch":4}`,
	`{"family":"pipeline","model":"megatron-2.5B","stages":4,"gpus":64,"batch":4,"micro":16}`,
	`{"family":"pipeline","model":"megatron-2.5B","stages":4,"gpus":64,"batch":16,"micro":2,"samples":1000,"precision":"mixed","cluster":{"nodes":16}}`,
	`{"family":"pipeline","transformer":{"hidden":512,"heads":8,"layers":4,"seq":256,"vocab":5000},"stages":2,"gpus":4,"batch":1,"backend":"planned","mp":3}`,
}

// TestEvaluateKeysGolden pins the /v1/evaluate response-cache keys: the
// canonical form a request is written back to (defaults filled, named
// transformers expanded, precision synonyms folded) decides which
// requests share one cached body, so it must not drift silently.
func TestEvaluateKeysGolden(t *testing.T) {
	var got strings.Builder
	for _, body := range keyRequests {
		var req EvaluateRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if _, err := req.config(); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		key, err := canonicalKey("/v1/evaluate", &req)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		got.WriteString(key + "\n")
	}
	path := filepath.Join("testdata", "evaluate_keys.golden")
	if *record {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("canonical keys drifted:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}
