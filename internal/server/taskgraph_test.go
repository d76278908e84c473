package server

import (
	"context"
	"fmt"
	"testing"

	"crowdwifi/internal/crowd"
	"crowdwifi/internal/eval"
	"crowdwifi/internal/rng"
)

// servedCrowd is Fig. 7(a)'s crowd after it went through the store: the
// task graph the store's assignments built, the truth and each vehicle's
// kind, and the weights the cycle inferred.
type servedCrowd struct {
	graph       *crowd.Labels // built from the labels posted, vehicle j is vehicles[j]
	truth       []int
	hammer      []bool
	vehicles    []string
	reliability map[string]float64
}

// serveFig7a runs Fig. 7(a)'s setup through the store: 1,000 tasks, γ = 5
// tasks per vehicle, l vehicles per task, spammer-hammer at p = 0.5. The
// patterns go in first, then each vehicle in turn pulls γ tasks and posts
// its answers, then one cycle infers the weights.
func serveFig7a(t *testing.T, l int, seed uint64) servedCrowd {
	t.Helper()
	const tasks, gamma, segments = 1000, 5, 20
	ctx := context.Background()
	r := rng.New(seed)
	s := NewStore(10)
	for i := 0; i < tasks; i++ {
		if _, err := s.AddPatternKeyed(ctx, "", fmt.Sprintf("road-%d", i%segments), nil); err != nil {
			t.Fatal(err)
		}
	}
	c := servedCrowd{truth: crowd.RandomLabelsTruth(tasks, r)}
	q := crowd.SpammerHammer(tasks*l/gamma, 0.5, r)
	// WorkerTasks stays empty: no estimator reads it.
	a := &crowd.Assignment{NumTasks: tasks, NumWorkers: len(q), TaskWorkers: make([][]int, tasks)}
	c.graph = &crowd.Labels{Assignment: a, Values: make([][]int8, tasks)}
	for v, qv := range q {
		id := fmt.Sprintf("veh-%04d", v)
		c.vehicles = append(c.vehicles, id)
		c.hammer = append(c.hammer, qv == 1)
		assigned := s.AssignTasks(id, gamma)
		if len(assigned) != gamma {
			t.Fatalf("%s was assigned %d tasks, want %d", id, len(assigned), gamma)
		}
		ls := make([]Label, len(assigned))
		for k, p := range assigned {
			ans := c.truth[p.ID]
			if !r.Bernoulli(qv) {
				ans = -ans
			}
			ls[k] = Label{Vehicle: id, TaskID: p.ID, Value: ans}
			a.TaskWorkers[p.ID] = append(a.TaskWorkers[p.ID], v)
			c.graph.Values[p.ID] = append(c.graph.Values[p.ID], int8(ans))
		}
		if err := s.AddLabelsKeyed(ctx, "", ls); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	c.reliability = s.Reliability()
	return c
}

// hammersBelowHalf counts the hammers the cycle weighs below fusion's
// MinWeight of 0.5, and the hammers.
func (c servedCrowd) hammersBelowHalf() (below, hammers int) {
	for j, id := range c.vehicles {
		if c.hammer[j] {
			hammers++
			if c.reliability[id] < 0.5 {
				below++
			}
		}
	}
	return below, hammers
}

// components counts the connected components of the task graph, tasks and
// vehicles both vertices.
func (c servedCrowd) components() int {
	a := c.graph.Assignment
	parent := make([]int, a.NumTasks+a.NumWorkers)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	n := len(parent)
	for i, ws := range a.TaskWorkers {
		for _, w := range ws {
			if x, y := find(i), find(a.NumTasks+w); x != y {
				parent[x] = y
				n--
			}
		}
	}
	return n
}

// TestServedTaskGraphSeparatesHammers is Fig. 7(a) through the store's own
// task assignment: the inference over the graph the store built must keep
// honest vehicles' weights up and beat majority vote on that graph, as it
// does on the random (ℓ, γ)-regular graph the paper assumes.
func TestServedTaskGraphSeparatesHammers(t *testing.T) {
	ls := []int{5, 10, 15}
	if raceEnabled {
		ls = []int{10}
	}
	for _, l := range ls {
		t.Run(fmt.Sprintf("l=%d", l), func(t *testing.T) {
			c := serveFig7a(t, l, uint64(l))
			if below, hammers := c.hammersBelowHalf(); 100*below >= hammers {
				t.Errorf("%d of %d hammers weigh below 0.5, want under 1%%", below, hammers)
			}
			if l != 10 {
				return
			}
			kos := eval.BitErrorRate(c.truth, crowd.Infer(c.graph, crowd.InferenceOptions{}).Labels)
			mv := eval.BitErrorRate(c.truth, crowd.MajorityVote(c.graph))
			t.Logf("bit error: inference %.4f, majority vote %.4f", kos, mv)
			if kos >= mv {
				t.Errorf("inference bit error %.3f, majority vote %.3f on the served graph: want inference below", kos, mv)
			}
		})
	}
}
