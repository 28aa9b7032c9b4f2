package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fixedJobServer serves POST path with the given status and job
// document and records each request body it received.
func fixedJobServer(t *testing.T, path string, status int, doc string) (*httptest.Server, *[]string) {
	t.Helper()
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != path {
			http.NotFound(w, r)
			return
		}
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(b))
		w.WriteHeader(status)
		io.WriteString(w, doc)
	}))
	t.Cleanup(srv.Close)
	return srv, &bodies
}

const corunDoc = `{"id":"job-7","status":"done","cached":true,"corun":{` +
	`"digest":"pairdigest",` +
	`"a":{"prog":"429.mcf","optimizer":"bb-affinity","missSolo":0.0125,"missCorun":0.025,"contention":0.0125,` +
	`"defensiveness":0.5,"politeness":0.25,"predMisses":1234.4},` +
	`"b":{"prog":"458.sjeng","optimizer":"func-affinity","missSolo":0.001,"missCorun":0.002,"contention":0.001,` +
	`"defensiveness":-0.1,"politeness":0,"predMisses":99.6},` +
	`"pairCost":1334}}`

const corunTable = `pair pairdigest cached=true

               429.mcf/bb-affinity 458.sjeng/func-affinity
miss solo           1.2500%      0.1000%
miss corun          2.5000%      0.2000%
contention          1.2500%      0.1000%
defensiveness      50.0000%    -10.0000%
politeness         25.0000%      0.0000%
pred misses            1234          100

pair cost (Eq-1 predicted co-run misses): 1334
`

func TestDoCorun(t *testing.T) {
	for _, c := range []struct {
		name      string
		pair      string
		cache     string
		jsonOut   bool
		status    int
		doc       string
		want      string
		wantBody  string
		wantErr   string
		wantUsage bool
	}{
		{name: "table", pair: "da,db", status: http.StatusOK, doc: corunDoc, want: corunTable,
			wantBody: `{"a":"da","b":"db"}`},
		{name: "json with geometry", pair: " da , db ", cache: "65536/8/32", jsonOut: true,
			status: http.StatusOK, doc: corunDoc, want: corunDoc + "\n",
			wantBody: `{"a":"da","b":"db","cache":{"Assoc":8,"LineBytes":32,"SizeBytes":65536}}`},
		{name: "failed job", pair: "da,db", status: http.StatusOK,
			doc: `{"id":"job-8","status":"failed","error":"trace evicted"}`, wantErr: "trace evicted"},
		{name: "refused", pair: "da,db", status: http.StatusNotFound,
			doc: `{"error":"no cached layout"}`, wantErr: "404"},
		{name: "bad geometry", pair: "da,db", cache: "32768/4", status: http.StatusOK, doc: corunDoc,
			wantErr: "sizeBytes/assoc/lineBytes"},
		{name: "one digest", pair: "da,", status: http.StatusOK, doc: corunDoc, wantUsage: true},
		{name: "three digests", pair: "da,db,dc", status: http.StatusOK, doc: corunDoc, wantUsage: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, bodies := fixedJobServer(t, "/v1/corun", c.status, c.doc)
			var out strings.Builder
			err := doCorun(&out, &retrier{}, srv.URL, c.pair, c.cache, time.Second, c.jsonOut)
			var misuse usageError
			switch {
			case c.wantUsage:
				if !errors.As(err, &misuse) || len(*bodies) != 0 {
					t.Fatalf("err = %v after %d requests, want a usage error before any", err, len(*bodies))
				}
				return
			case c.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, c.wantErr)
				}
				return
			case err != nil:
				t.Fatal(err)
			}
			if out.String() != c.want {
				t.Fatalf("output\n%s\nwant\n%s", out.String(), c.want)
			}
			if len(*bodies) != 1 || !sameJSON(t, (*bodies)[0], c.wantBody) {
				t.Fatalf("request bodies %q, want one %s", *bodies, c.wantBody)
			}
		})
	}
}

// scheduleDoc returns a done schedule job whose placement is domains.
func scheduleDoc(domains string) string {
	return `{"id":"job-9","status":"done","cached":false,"schedule":{` +
		`"digest":"scheddigest",` +
		`"labels":["429.mcf/bb-affinity-long-label","458.sjeng/func-affinity","429.mcf/bb-affinity-long-label"],` +
		`"matrix":[[0,10,20],[10,0,30],[20,30,0]],` +
		`"placement":{"domains":` + domains + `,"cost":10,"exact":true},` +
		`"worstCost":40,"worstKnown":true,"pairsComposed":2,"pairsCached":1}}`
}

func TestDoSchedule(t *testing.T) {
	for _, c := range []struct {
		name             string
		list             string
		domains, slots   int
		doc              string
		want             []string // lines the rendering must hold, in order
		wantErr          string
		wantUsage        bool
		wantTopologyBody bool
	}{
		{name: "placement", list: "d1,d2,d1", domains: 2, slots: 2, doc: scheduleDoc(`[[0,1],[2]]`),
			want: []string{
				"schedule scheddigest cached=false (2 pairs composed, 1 from cache)",
				"pairwise interference (Eq-1 predicted co-run misses)",
				"placement (exact, total cost 10):",
				"  domain 0: #0 429.mcf/bb-affinity-long-label, #1 458.sjeng/func-affinity",
				"  domain 1: #2 429.mcf/bb-affinity-long-label",
				"worst-case pairing cost 40; placement saves 75.0%",
			},
			wantTopologyBody: true},
		{name: "index past labels", list: "d1,d2,d1", domains: 2, slots: 2, doc: scheduleDoc(`[[0,3],[2]]`),
			wantErr: "placement names program #3 of 3"},
		{name: "negative index", list: "d1,d2,d1", domains: 2, slots: 2, doc: scheduleDoc(`[[-1]]`),
			wantErr: "placement names program #-1 of 3"},
		{name: "one digest", list: "d1", domains: 2, slots: 2, doc: scheduleDoc(`[]`), wantUsage: true},
		{name: "no topology", list: "d1,d2", domains: 0, slots: 2, doc: scheduleDoc(`[]`), wantUsage: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, bodies := fixedJobServer(t, "/v1/schedule", http.StatusOK, c.doc)
			var out strings.Builder
			err := doSchedule(&out, &retrier{}, srv.URL, c.list, c.domains, c.slots, "", time.Second, false)
			var misuse usageError
			switch {
			case c.wantUsage:
				if !errors.As(err, &misuse) || len(*bodies) != 0 {
					t.Fatalf("err = %v after %d requests, want a usage error before any", err, len(*bodies))
				}
				return
			case c.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, c.wantErr)
				}
				return
			case err != nil:
				t.Fatal(err)
			}
			rest := out.String()
			for _, line := range c.want {
				i := strings.Index(rest, line+"\n")
				if i < 0 {
					t.Fatalf("output lacks %q after the previous line:\n%s", line, out.String())
				}
				rest = rest[i+len(line):]
			}
			if c.wantTopologyBody && !sameJSON(t, (*bodies)[0],
				`{"digests":["d1","d2","d1"],"topology":{"domains":2,"slotsPerDomain":2}}`) {
				t.Fatalf("request body %s", (*bodies)[0])
			}
		})
	}

	srv, _ := fixedJobServer(t, "/v1/schedule", http.StatusOK, scheduleDoc(`[[0,1],[2]]`))
	var out strings.Builder
	if err := doSchedule(&out, &retrier{}, srv.URL, "d1,d2,d1", 2, 2, "", time.Second, true); err != nil {
		t.Fatal(err)
	}
	if out.String() != scheduleDoc(`[[0,1],[2]]`)+"\n" {
		t.Fatalf("-json output %q", out.String())
	}
}

// sameJSON reports whether two JSON documents decode to equal values.
func sameJSON(t *testing.T, a, b string) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal([]byte(a), &va); err != nil {
		t.Fatalf("%q: %v", a, err)
	}
	if err := json.Unmarshal([]byte(b), &vb); err != nil {
		t.Fatalf("%q: %v", b, err)
	}
	return reflect.DeepEqual(va, vb)
}

func TestParseCacheGeometry(t *testing.T) {
	for _, c := range []struct {
		in   string
		want map[string]int
		err  bool
	}{
		{in: "", want: nil},
		{in: "32768/4/64", want: map[string]int{"SizeBytes": 32768, "Assoc": 4, "LineBytes": 64}},
		{in: " 24576 / 4 / 64 ", want: map[string]int{"SizeBytes": 24576, "Assoc": 4, "LineBytes": 64}},
		{in: "32768/4", err: true},
		{in: "32768/4/64/1", err: true},
		{in: "a/4/64", err: true},
		{in: "0/4/64", err: true},
		{in: "32768/-4/64", err: true},
		{in: "32768//64", err: true},
	} {
		got, err := parseCacheGeometry(c.in)
		if (err != nil) != c.err || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseCacheGeometry(%q) = %v, %v; want %v, error %v", c.in, got, err, c.want, c.err)
		}
	}
}

func TestSplitDigests(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",, ,", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , ,b ,", []string{"a", "b"}},
		{"a,a", []string{"a", "a"}},
	} {
		if got := splitDigests(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitDigests(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestShortLabels(t *testing.T) {
	for _, c := range []struct {
		in, want []string
	}{
		{nil, []string{}},
		{[]string{"429.mcf/bb-trg"}, []string{"429.mcf/bb-trg"}},
		{[]string{"0123456789abcdef", "0123456789abcdefg", "458.sjeng/func-affinity"},
			[]string{"0123456789abcdef", "0123456789abcdef", "458.sjeng/func-a"}},
	} {
		if got := shortLabels(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("shortLabels(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
