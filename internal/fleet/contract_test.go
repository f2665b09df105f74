package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/mapclient"
)

// TestJobSpecDecodingContract sends one table of requests, invalid and
// unusual ones included, to mapd, to the router in front of it and,
// for the job API, through mapclient to each. Every answer must be
// JSON, and every failure an api.ErrorBody, with the status, Allow and
// Retry-After its row expects. Unless a row says otherwise, the router
// answers as mapd does, error text included: both decode job specs
// with engine.DecodeSpec and write through internal/api. The last rows
// run while the replica drains.
func TestJobSpecDecodingContract(t *testing.T) {
	rep := startReplicaAt(t, "", engine.Options{Workers: 1})
	rt, router := fastRouter(t, []string{rep.url()})
	waitUsable(t, rt, 1)
	ctx := context.Background()

	const inline = `{"graph": {"n": 9, "edges": [[0,1,1], [1,2,1], [2,3,2], [3,4,1], [4,5,1], [5,6,2], [6,7,1], [7,8,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`
	const batch = `{"graphs": [{"n": 9, "edges": [[0,1,1], [1,2,1], [2,3,2], [3,4,1]]}], "topologies": ["grid:2x2"], "num_hierarchies": 2}`
	type server struct {
		name, url string
		client    *mapclient.Client
		job       string // a job submitted before the table
	}
	servers := []*server{{name: "mapd", url: rep.url()}, {name: "router", url: router.URL}}
	for _, s := range servers {
		s.client = mapclient.New(s.url, mapclient.Config{MaxAttempts: 1})
		job, err := s.client.SubmitJSON(ctx, []byte(inline))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		s.job = job.ID
	}

	// A row's mapclient call, given the job ID its path names.
	type call func(c *mapclient.Client, id string) error
	submit := func(body string) call {
		return func(c *mapclient.Client, _ string) error {
			_, err := c.SubmitJSON(ctx, []byte(body))
			return err
		}
	}
	get := func(c *mapclient.Client, id string) error {
		_, err := c.GetJob(ctx, id)
		return err
	}
	wait := func(c *mapclient.Client, id string) error {
		_, err := c.WaitJob(ctx, id)
		return err
	}
	type want struct {
		status int
		err    string // the error text; empty accepts any for a failure
		allow  string
		retry  [2]int // bounds of Retry-After in seconds; zero: no header
	}
	type row struct {
		name, method, path, body string
		id                       string // what {id} in path stands for; empty: the server's job
		chunked                  bool   // send the body without a declared length
		mapd                     want
		router                   *want // nil: as mapd
		client                   call  // nil: the row has no mapclient form
	}
	accepted, refused := want{status: http.StatusAccepted}, want{status: http.StatusBadRequest}
	ok := want{status: http.StatusOK}
	unknownJob := want{status: http.StatusNotFound, err: `unknown job "nope"`}
	notFound := func(route string) *want {
		return &want{status: http.StatusNotFound, err: route + ": not found"}
	}
	jobRow := func(name, body string, w want) row {
		return row{name: name, method: http.MethodPost, path: "/v1/jobs", body: body, mapd: w, client: submit(body)}
	}
	live := []row{
		jobRow("inline spec", inline, accepted),
		jobRow("named spec", `{"graph": {"network": "p2p-Gnutella", "scale": 0.05}, "topology": "grid:2x2", "num_hierarchies": 2}`, accepted),
		jobRow("unknown field", `{"graph": {"edges": [[0,1,1]]}, "topology": "grid:2x2", "bogus": 1}`, refused),
		jobRow("Graph spelling", `{"Graph": {"n": 9, "edges": [[0,1,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, accepted),
		jobRow("EDGES spelling", `{"graph": {"n": 9, "EDGES": [[0,1,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, accepted),
		jobRow("duplicate graph", `{"graph": {"n": 9}, "graph": {"edges": [[0,1,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, accepted),
		jobRow("duplicate edges", `{"graph": {"n": 9, "edges": [[0,1,1]], "edges": [[1,2,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, accepted),
		jobRow("escaped edges key", `{"graph": {"n": 9, "\u0065dges": [[0,1,1]]}, "topology": "grid:2x2", "num_hierarchies": 2}`, accepted),
		jobRow("float weight", `{"graph": {"edges": [[0,1,1.5]]}, "topology": "grid:2x2"}`, refused),
		jobRow("string seed", `{"graph": {"edges": [[0,1,1]]}, "topology": "grid:2x2", "seed": "5"}`, refused),
		jobRow("trailing bytes", inline+` {"bogus": 1}`, accepted),
		{name: "chunked inline spec", method: http.MethodPost, path: "/v1/jobs", body: inline, chunked: true, mapd: accepted},
		{name: "wait for a job", method: http.MethodGet, path: "/v1/jobs/{id}?wait=1", mapd: ok, client: wait},
		{name: "poll a job", method: http.MethodGet, path: "/v1/jobs/{id}", mapd: ok, client: get},
		{name: "poll an unknown job", method: http.MethodGet, path: "/v1/jobs/{id}", id: "nope", mapd: unknownJob, client: get},
		{name: "wait for an unknown job", method: http.MethodGet, path: "/v1/jobs/{id}?wait=1", id: "nope", mapd: unknownJob, client: wait},
		{name: "delete a job", method: http.MethodDelete, path: "/v1/jobs/{id}", id: "nope",
			mapd: want{status: http.StatusMethodNotAllowed, err: "DELETE /v1/jobs/nope: method not allowed", allow: "GET, HEAD"}},
		{name: "list jobs", method: http.MethodGet, path: "/v1/jobs", mapd: ok,
			router: &want{status: http.StatusMethodNotAllowed, err: "GET /v1/jobs: method not allowed", allow: "POST"}},
		{name: "batch", method: http.MethodPost, path: "/v1/batches", body: batch, mapd: accepted},
		{name: "batch with an unknown field", method: http.MethodPost, path: "/v1/batches", body: `{"graphs": [], "bogus": 1}`,
			mapd: want{status: http.StatusBadRequest, err: `decoding batch spec: json: unknown field "bogus"`}},
		{name: "list graphs", method: http.MethodGet, path: "/v1/graphs", mapd: ok, router: notFound("GET /v1/graphs")},
		{name: "ingest request with an unknown field", method: http.MethodPost, path: "/v1/graphs", body: `{"bogus": 1}`,
			mapd:   want{status: http.StatusBadRequest, err: `decoding ingest request: json: unknown field "bogus"`},
			router: notFound("POST /v1/graphs")},
		{name: "unknown graph", method: http.MethodGet, path: "/v1/graphs/upload:nope",
			mapd:   want{status: http.StatusNotFound, err: `unknown graph ref "upload:nope"`},
			router: notFound("GET /v1/graphs/upload:nope")},
		{name: "topologies", method: http.MethodGet, path: "/v1/topologies", mapd: ok, router: notFound("GET /v1/topologies")},
		{name: "bench matrices", method: http.MethodGet, path: "/v1/bench/matrices", mapd: ok, router: notFound("GET /v1/bench/matrices")},
		{name: "stats", method: http.MethodGet, path: "/v1/stats", mapd: ok},
		{name: "healthz", method: http.MethodGet, path: "/healthz", mapd: ok},
		{name: "readyz", method: http.MethodGet, path: "/readyz", mapd: ok},
		{name: "unknown route", method: http.MethodGet, path: "/v1/nope", mapd: *notFound("GET /v1/nope")},
		{name: "post to healthz", method: http.MethodPost, path: "/healthz",
			mapd: want{status: http.StatusMethodNotAllowed, err: "POST /healthz: method not allowed", allow: "GET, HEAD"}},
	}
	// A draining mapd sheds with its jittered drain Retry-After (5 s
	// plus up to 3); the router, once its prober has de-pooled the
	// replica, with its own 1 s.
	shed := want{status: http.StatusServiceUnavailable, err: engine.ErrDraining.Error(), retry: [2]int{5, 8}}
	noReplica := &want{status: http.StatusServiceUnavailable, err: "fleet: no usable replica", retry: [2]int{1, 1}}
	draining := []row{
		{name: "job while draining", method: http.MethodPost, path: "/v1/jobs", body: inline, mapd: shed, router: noReplica, client: submit(inline)},
		{name: "batch while draining", method: http.MethodPost, path: "/v1/batches", body: batch, mapd: shed, router: noReplica},
		{name: "readyz while draining", method: http.MethodGet, path: "/readyz", mapd: shed, router: noReplica},
		{name: "wait for a finished job while draining", method: http.MethodGet, path: "/v1/jobs/{id}?wait=1", mapd: ok, client: wait},
	}

	run := func(tc row) {
		for _, s := range servers {
			w := tc.mapd
			if tc.router != nil && s.name == "router" {
				w = *tc.router
			}
			id := tc.id
			if id == "" {
				id = s.job
			}
			var send io.Reader = strings.NewReader(tc.body)
			if tc.chunked {
				send = io.MultiReader(send) // a reader whose length net/http cannot know
			}
			req, err := http.NewRequest(tc.method, s.url+strings.Replace(tc.path, "{id}", id, 1), send)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			_, err = raw.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var body api.ErrorBody
			if resp.StatusCode >= 300 {
				dec := json.NewDecoder(&raw)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&body); err != nil || body.Error == "" {
					t.Errorf("%s: %s answered %d %q, not an error body (%v)", tc.name, s.name, resp.StatusCode, raw.String(), err)
				}
			} else if !json.Valid(raw.Bytes()) {
				t.Errorf("%s: %s answered %d %q, not JSON", tc.name, s.name, resp.StatusCode, raw.String())
			}
			ra := resp.Header.Get("Retry-After")
			retry, _ := strconv.Atoi(ra)
			if resp.StatusCode != w.status || (w.err != "" && body.Error != w.err) ||
				resp.Header.Get("Content-Type") != "application/json" || resp.Header.Get("Allow") != w.allow ||
				(ra == "") != (w.retry[1] == 0) || retry < w.retry[0] || retry > w.retry[1] {
				t.Errorf("%s: %s answered %d %q, Content-Type %q, Allow %q, Retry-After %q; want %d %q, application/json, Allow %q, Retry-After in %v",
					tc.name, s.name, resp.StatusCode, body.Error, resp.Header.Get("Content-Type"), resp.Header.Get("Allow"), ra,
					w.status, w.err, w.allow, w.retry)
			}
			if s.name == "mapd" && tc.router == nil && w.err == "" {
				tc.mapd.err = body.Error // the router must answer the same text
			}
			if tc.client == nil {
				continue
			}
			// The client's own request: same status and text, and a
			// Retry-After within the same bounds.
			err = tc.client(s.client, id)
			var apiErr *mapclient.APIError
			switch {
			case w.status < 300:
				if err != nil {
					t.Errorf("%s: mapclient against %s: %v", tc.name, s.name, err)
				}
			case !errors.As(err, &apiErr) || apiErr.Status != w.status || apiErr.Message != body.Error ||
				int(apiErr.RetryAfter/time.Second) < w.retry[0] || int(apiErr.RetryAfter/time.Second) > w.retry[1]:
				t.Errorf("%s: mapclient against %s returned %v; want status %d, %q, Retry-After in %v", tc.name, s.name, err, w.status, body.Error, w.retry)
			}
		}
	}
	for _, tc := range live {
		run(tc)
	}
	rep.eng.BeginDrain()
	for deadline := time.Now().Add(10 * time.Second); rt.UsableCountForTest() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the router never de-pooled its draining replica")
		}
	}
	for _, tc := range draining {
		run(tc)
	}
}
