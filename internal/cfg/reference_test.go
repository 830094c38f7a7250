package cfg

import (
	"sort"

	"regalloc/internal/ir"
)

// analyzeRef is the analysis as it was before findLoops used a stamp
// array: the same reverse postorder and Cooper–Harvey–Kennedy
// dominators, a dominance test that walks up to the entry, and loop
// bodies gathered in a map per header. It leaves f's block depths
// alone.
func analyzeRef(f *ir.Func) *Info {
	n := len(f.Blocks)
	info := &Info{
		RPONum: make([]int, n),
		IDom:   make([]int, n),
		Depth:  make([]int, n),
	}
	for i := range info.RPONum {
		info.RPONum[i] = -1
		info.IDom[i] = -1
	}
	post := make([]int, 0, n)
	seen := make([]bool, n)
	var dfs func(b int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range f.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	info.RPO = make([]int, len(post))
	for i := range post {
		info.RPO[i] = post[len(post)-1-i]
	}
	for i, b := range info.RPO {
		info.RPONum[b] = i
	}
	info.computeIDom(f)

	dominates := func(a, b int) bool {
		if info.RPONum[a] < 0 || info.RPONum[b] < 0 {
			return false
		}
		for {
			if b == a {
				return true
			}
			if b == 0 {
				return a == 0
			}
			b = info.IDom[b]
		}
	}
	bodies := make(map[int]map[int]bool)
	var headers []int
	for _, b := range f.Blocks {
		if info.RPONum[b.ID] < 0 {
			continue
		}
		for _, s := range b.Succs {
			if !dominates(s, b.ID) {
				continue
			}
			body, ok := bodies[s]
			if !ok {
				body = map[int]bool{s: true}
				bodies[s] = body
				headers = append(headers, s)
			}
			stack := []int{b.ID}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				for _, p := range f.Blocks[x].Preds {
					if info.RPONum[p] >= 0 {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, h := range headers {
		var blocks []int
		for b := range bodies[h] {
			blocks = append(blocks, b)
			info.Depth[b]++
		}
		sort.Ints(blocks)
		info.Loops = append(info.Loops, Loop{Header: h, Blocks: blocks})
	}
	return info
}
