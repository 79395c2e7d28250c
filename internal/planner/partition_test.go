package planner

import (
	"testing"

	"tableau/internal/periodic"
)

// newCoreStates returns n empty core states outside any plan.
func newCoreStates(n int) []*coreState {
	return new(workspace).coreStates(n)
}

func implicitTask(name string, c, t int64) periodic.Task {
	return periodic.Task{Name: name, WCET: c, Deadline: t, Period: t}
}

func TestPartitionWFDSpreadsLoad(t *testing.T) {
	cores := newCoreStates(4)
	var tasks periodic.TaskSet
	for i := 0; i < 8; i++ {
		tasks = append(tasks, implicitTask(string(rune('a'+i)), 25, 100))
	}
	unplaced := partitionWFD(new(workspace), cores, tasks, 0, nil)
	if len(unplaced) != 0 {
		t.Fatalf("unplaced = %v", unplaced)
	}
	// Worst-fit spreads 8 equal tasks as 2 per core.
	for _, c := range cores {
		if len(c.tasks) != 2 {
			t.Errorf("core %d has %d tasks, want 2", c.id, len(c.tasks))
		}
	}
}

func TestPartitionWFDRespectsCapacity(t *testing.T) {
	cores := newCoreStates(2)
	tasks := periodic.TaskSet{
		implicitTask("a", 60, 100),
		implicitTask("b", 60, 100),
		implicitTask("c", 60, 100),
	}
	unplaced := partitionWFD(new(workspace), cores, tasks, 0, nil)
	if len(unplaced) != 1 {
		t.Fatalf("unplaced = %v, want exactly one", unplaced)
	}
	for _, c := range cores {
		if c.util.cmpInt(1) > 0 {
			t.Errorf("core %d over-utilized: %v", c.id, c.util.rat())
		}
	}
}

func TestPartitionWFDSkipsDedicated(t *testing.T) {
	cores := newCoreStates(2)
	cores[0].dedicated = true
	tasks := periodic.TaskSet{implicitTask("a", 50, 100)}
	if unplaced := partitionWFD(new(workspace), cores, tasks, 0, nil); len(unplaced) != 0 {
		t.Fatalf("unplaced = %v", unplaced)
	}
	if len(cores[0].tasks) != 0 {
		t.Error("task placed on dedicated core")
	}
	if len(cores[1].tasks) != 1 {
		t.Error("task not placed on free core")
	}
}

func TestCoreStateFitsConstrained(t *testing.T) {
	c := &coreState{id: 0, util: zeroFrac()}
	c.add(periodic.Task{Name: "cd", WCET: 40, Deadline: 40, Period: 100})
	// A second C=D task of 40 would demand 80 by t=40: infeasible even
	// though utilization is only 0.8.
	if c.fits(periodic.Task{Name: "cd2", WCET: 40, Deadline: 40, Period: 100}) {
		t.Error("accepted a constrained task that QPA must reject")
	}
	if !c.fits(implicitTask("small", 10, 100)) {
		t.Error("rejected a feasible implicit task")
	}
	if !c.constrained {
		t.Error("core not marked constrained")
	}
}

func TestSplitCDBasic(t *testing.T) {
	// Two cores at 0.6 each; a 0.7 task fits nowhere whole but splits.
	cores := newCoreStates(2)
	cores[0].add(implicitTask("a", 60, 100))
	cores[1].add(implicitTask("b", 60, 100))
	tk := implicitTask("split", 70, 100)
	pieces, ok := splitCD(cores, tk, 1)
	if !ok {
		t.Fatal("splitCD failed on a feasible instance")
	}
	if len(pieces) < 2 {
		t.Fatalf("pieces = %v, want >= 2", pieces)
	}
	var total int64
	var offset int64
	for i, p := range pieces {
		total += p.WCET
		if p.Name != "split" || p.Group != tk.Group {
			t.Errorf("piece %d identity wrong: %+v", i, p)
		}
		if p.Offset != offset {
			t.Errorf("piece %d offset = %d, want %d (contiguous precedence)", i, p.Offset, offset)
		}
		if i < len(pieces)-1 && p.Deadline != p.WCET {
			t.Errorf("non-final piece %d must be C=D: %+v", i, p)
		}
		offset += p.WCET
	}
	if total != 70 {
		t.Errorf("pieces sum to %d, want 70", total)
	}
	// Each hosting core must remain schedulable.
	for _, c := range cores {
		if !c.tasks.EDFSchedulable() {
			t.Errorf("core %d unschedulable after split", c.id)
		}
	}
}

func TestSplitCDAtomicOnFailure(t *testing.T) {
	// Nearly full cores: a large task cannot be split in.
	cores := newCoreStates(2)
	cores[0].add(implicitTask("a", 99, 100))
	cores[1].add(implicitTask("b", 99, 100))
	before0, before1 := len(cores[0].tasks), len(cores[1].tasks)
	if _, ok := splitCD(cores, implicitTask("big", 50, 100), 1); ok {
		t.Fatal("split succeeded on an infeasible instance")
	}
	if len(cores[0].tasks) != before0 || len(cores[1].tasks) != before1 {
		t.Error("failed split left partial state behind")
	}
}

func TestSplitCDRespectsMinChunk(t *testing.T) {
	// Only a sliver of room on each core: with a large min chunk the
	// split must be refused.
	cores := newCoreStates(2)
	cores[0].add(implicitTask("a", 95, 100))
	cores[1].add(implicitTask("b", 95, 100))
	if _, ok := splitCD(cores, implicitTask("t", 10, 100), 20); ok {
		t.Error("split produced pieces below the minimum chunk")
	}
}

func TestGrowCluster(t *testing.T) {
	cores := newCoreStates(4)
	cores[0].add(implicitTask("a", 70, 100))
	cores[1].add(implicitTask("b", 70, 100))
	cores[2].add(implicitTask("c", 10, 100))
	cores[3].constrained = true
	cores[3].add(periodic.Task{Name: "cd", WCET: 30, Deadline: 30, Period: 100})
	unplaced := periodic.TaskSet{implicitTask("x", 60, 100)}
	cluster, tasks, err := growCluster(cores, unplaced)
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster) < 2 {
		t.Fatalf("cluster size %d, want >= 2", len(cluster))
	}
	for _, c := range cluster {
		if c.constrained || c.dedicated {
			t.Error("ineligible core joined cluster")
		}
	}
	if !tasks.UtilAtMost(int64(len(cluster))) {
		t.Error("cluster tasks over-utilize the cluster")
	}
	// The unplaced task must be in the cluster's task set.
	found := false
	for _, tk := range tasks {
		if tk.Name == "x" {
			found = true
		}
	}
	if !found {
		t.Error("unplaced task missing from cluster")
	}
}

func TestGrowClusterFailsWhenImpossible(t *testing.T) {
	cores := newCoreStates(1)
	unplaced := periodic.TaskSet{implicitTask("x", 60, 100)}
	if _, _, err := growCluster(cores, unplaced); err == nil {
		t.Error("single-core cluster should not form")
	}
}
