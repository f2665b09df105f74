package fleet_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestJobSpecDecodingContract sends one table of job bodies, invalid
// and unusual ones included, to mapd and to the router in front of
// it: both must answer each body with the same status and the same
// error text, because both decode job specs with engine.DecodeSpec.
func TestJobSpecDecodingContract(t *testing.T) {
	rep := startReplicaAt(t, "", engine.Options{Workers: 1})
	rt, router := fastRouter(t, []string{rep.url()})
	waitUsable(t, rt, 1)

	const inline = `{"graph": {"n": 9, "edges": [[0,1,1], [1,2,1], [2,3,2], [3,4,1], [4,5,1], [5,6,2], [6,7,1], [7,8,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"inline spec", inline, http.StatusAccepted},
		{"named spec", `{"graph": {"network": "p2p-Gnutella", "scale": 0.05}, "topology": "grid:2x2", "num_hierarchies": 2}`, http.StatusAccepted},
		{"unknown field", `{"graph": {"edges": [[0,1,1]]}, "topology": "grid:2x2", "bogus": 1}`, http.StatusBadRequest},
		{"Graph spelling", `{"Graph": {"n": 9, "edges": [[0,1,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, http.StatusAccepted},
		{"EDGES spelling", `{"graph": {"n": 9, "EDGES": [[0,1,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, http.StatusAccepted},
		{"duplicate graph", `{"graph": {"n": 9}, "graph": {"edges": [[0,1,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, http.StatusAccepted},
		{"duplicate edges", `{"graph": {"n": 9, "edges": [[0,1,1]], "edges": [[1,2,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, http.StatusAccepted},
		{"escaped edges key", `{"graph": {"n": 9, "\u0065dges": [[0,1,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, http.StatusAccepted},
		{"float weight", `{"graph": {"edges": [[0,1,1.5]]}, "topology": "grid:2x2"}`, http.StatusBadRequest},
		{"string seed", `{"graph": {"edges": [[0,1,1]]}, "topology": "grid:2x2", "seed": "5"}`, http.StatusBadRequest},
		{"trailing bytes", inline + ` {"bogus": 1}`, http.StatusAccepted},
	} {
		type answer struct {
			status int
			err    string
		}
		var answers []answer
		for _, base := range []string{rep.url(), router.URL} {
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: decoding the answer of %s: %v", tc.name, base, err)
			}
			answers = append(answers, answer{resp.StatusCode, out.Error})
		}
		mapd, routed := answers[0], answers[1]
		if mapd.status != tc.status || (tc.status == http.StatusBadRequest) != (mapd.err != "") {
			t.Errorf("%s: mapd answered %d %q, want %d", tc.name, mapd.status, mapd.err, tc.status)
		}
		if routed != mapd {
			t.Errorf("%s: router answered %d %q, mapd %d %q", tc.name, routed.status, routed.err, mapd.status, mapd.err)
		}
	}
}
