package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"opprox/internal/approx"
	"opprox/internal/launch"
	"opprox/internal/serve"
)

// checkError is an output-check failure: the program answered, but the
// answer is wrong. It fails the operation and clears "correct".
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check: " + e.msg }

func checkFail(format string, a ...any) error { return &checkError{fmt.Sprintf(format, a...)} }

func isCheckErr(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// Checker validates every 200 dispatch body the benchmark receives. A
// body that fails a check counts as a failed operation.
type Checker struct {
	blocks map[string][]approx.Block

	mu sync.Mutex
	// first holds the first answer per (request, rung): every repeat
	// must be byte-identical (D10 for the plan cache, D13 for the ladder
	// rungs).
	first map[string]answer
	order []string // first-answer ids in arrival order
}

type answer struct {
	key  *Key
	body []byte
	resp *serve.DispatchResponse
}

// NewChecker builds a checker over each app's approximable blocks.
func NewChecker(blocks map[string][]approx.Block) *Checker {
	return &Checker{blocks: blocks, first: map[string]answer{}}
}

// Dispatch checks one 200 response to request k served at rung. A
// repeat of a request must return the same bytes as its first answer;
// having passed that comparison, it passes every other check too, so
// repeats cost one byte comparison.
func (c *Checker) Dispatch(k *Key, rung string, body []byte) error {
	// A cache hit replays the full rung's bytes, so the two share one
	// identity class.
	class := rung
	if class == "cached" {
		class = "full"
	}
	id := class + "\x00" + string(k.Body)
	c.mu.Lock()
	prev, seen := c.first[id]
	c.mu.Unlock()
	if seen {
		if !bytes.Equal(prev.body, body) {
			return checkFail("repeat of a request at rung %q returned different bytes", rung)
		}
		return nil
	}
	resp, err := c.validate(k, body)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if prev, seen := c.first[id]; seen {
		// A concurrent first answer won the race; compare against it.
		c.mu.Unlock()
		if !bytes.Equal(prev.body, body) {
			return checkFail("repeat of a request at rung %q returned different bytes", rung)
		}
		return nil
	}
	c.first[id] = answer{key: k, body: append([]byte(nil), body...), resp: resp}
	c.order = append(c.order, id)
	c.mu.Unlock()
	return nil
}

// validate runs the content checks on a first answer.
func (c *Checker) validate(k *Key, body []byte) (*serve.DispatchResponse, error) {
	var resp serve.DispatchResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return nil, checkFail("body does not decode: %v", err)
	}
	if resp.App != k.App {
		return nil, checkFail("app %q, requested %q", resp.App, k.App)
	}
	if resp.Phases != len(resp.Levels) {
		return nil, checkFail("phases %d but %d level rows", resp.Phases, len(resp.Levels))
	}
	blocks, ok := c.blocks[k.App]
	if !ok {
		return nil, checkFail("unknown app %q", k.App)
	}
	sched, err := launch.DecodeEnv(resp.Env, blocks)
	if err != nil {
		return nil, checkFail("env does not decode: %v", err)
	}
	if sched.Phases != resp.Phases || !sameLevels(sched.Levels, resp.Levels) {
		return nil, checkFail("env does not round-trip to levels")
	}
	if resp.Budget > k.Budget {
		return nil, checkFail("served budget %g above requested %g", resp.Budget, k.Budget)
	}
	if !resp.Degraded {
		if resp.Degradation > resp.Budget {
			return nil, checkFail("predicted degradation %g over budget %g", resp.Degradation, resp.Budget)
		}
		if len(resp.PhasePredictions) != resp.Phases {
			return nil, checkFail("%d phase predictions for %d phases", len(resp.PhasePredictions), resp.Phases)
		}
	}
	return &resp, nil
}

// Served returns the first answer to every distinct request served at
// the full rung with a real (not degraded) plan, in arrival order.
func (c *Checker) Served() []answer {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []answer
	for _, id := range c.order {
		if a := c.first[id]; strings.HasPrefix(id, "full\x00") && !a.resp.Degraded {
			out = append(out, a)
		}
	}
	return out
}

func sameLevels(a []approx.Config, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
