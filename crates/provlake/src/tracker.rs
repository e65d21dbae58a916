//! The process-oriented tracker.

use parking_lot::Mutex;
use provio_hpcfs::FileSystem;
use provio_simrt::{SimDuration, SimTime, VirtualClock};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Handle to an in-flight task (execution step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskHandle(u64);

#[derive(Debug)]
struct StepRecord<'a> {
    record_kind: &'a str,
    workflow: &'a str,
    workflow_instance: u64,
    /// The full workflow-level attribute set, duplicated into every step
    /// record — the "irrelevant workflow information" the paper calls out.
    workflow_attributes: &'a BTreeMap<String, String>,
    task: &'a str,
    task_id: u64,
    cycle: u64,
    started_at_ns: u64,
    ended_at_ns: u64,
    inputs: &'a BTreeMap<String, String>,
    outputs: &'a BTreeMap<String, String>,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&serde_json::escape_str(s));
    out.push('"');
}

fn push_json_map(out: &mut String, map: &BTreeMap<String, String>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_str(out, v);
    }
    out.push('}');
}

impl StepRecord<'_> {
    /// One JSONL line, field order matching the struct declaration.
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"record_kind\":");
        push_json_str(&mut out, self.record_kind);
        out.push_str(",\"workflow\":");
        push_json_str(&mut out, self.workflow);
        let _ = write!(out, ",\"workflow_instance\":{}", self.workflow_instance);
        out.push_str(",\"workflow_attributes\":");
        push_json_map(&mut out, self.workflow_attributes);
        out.push_str(",\"task\":");
        push_json_str(&mut out, self.task);
        let _ = write!(
            out,
            ",\"task_id\":{},\"cycle\":{},\"started_at_ns\":{},\"ended_at_ns\":{}",
            self.task_id, self.cycle, self.started_at_ns, self.ended_at_ns
        );
        out.push_str(",\"inputs\":");
        push_json_map(&mut out, self.inputs);
        out.push_str(",\"outputs\":");
        push_json_map(&mut out, self.outputs);
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct Task {
    name: String,
    id: u64,
    cycle: u64,
    started_at_ns: u64,
    inputs: BTreeMap<String, String>,
    outputs: BTreeMap<String, String>,
}

struct State {
    workflow_attributes: BTreeMap<String, String>,
    open_tasks: BTreeMap<u64, Task>,
    next_task: u64,
    lines: Vec<String>,
    records: u64,
}

/// Modeled latency of pushing one step record to the collector service
/// (ProvLake POSTs JSON over HTTP; PROV-IO's Redland-insert analog is
/// `provio_core::config::DEFAULT_RECORD_LATENCY_NS`).
pub const PUSH_LATENCY_NS: u64 = 2_500_000;

/// Process-oriented provenance capture for one workflow execution.
pub struct ProvLakeTracker {
    fs: Arc<FileSystem>,
    path: String,
    workflow: String,
    instance: u64,
    clock: VirtualClock,
    state: Mutex<State>,
}

impl ProvLakeTracker {
    /// Begin a workflow execution writing to `path`.
    pub fn new(
        fs: Arc<FileSystem>,
        path: impl Into<String>,
        workflow: impl Into<String>,
        instance: u64,
        clock: VirtualClock,
    ) -> Self {
        let path = path.into();
        if let Some((dir, _)) = path.rsplit_once('/') {
            if !dir.is_empty() {
                let _ = fs.mkdir_all(dir, "provlake", SimTime::ZERO);
            }
        }
        ProvLakeTracker {
            fs,
            path,
            workflow: workflow.into(),
            instance,
            clock,
            state: Mutex::new(State {
                workflow_attributes: BTreeMap::new(),
                open_tasks: BTreeMap::new(),
                next_task: 1,
                lines: Vec::new(),
                records: 0,
            }),
        }
    }

    /// Record a workflow-level attribute (configuration). ProvLake attaches
    /// these "once at the beginning of the workflow" (paper §6.4) — but the
    /// full set rides along in every subsequent step record.
    pub fn set_workflow_attribute(&self, key: &str, value: &str) {
        // Attribute registration is a client-library call that round-trips
        // to the collector, like any other ProvLake API interaction.
        self.clock.advance(SimDuration::from_nanos(PUSH_LATENCY_NS));
        self.state
            .lock()
            .workflow_attributes
            .insert(key.to_string(), value.to_string());
    }

    /// Begin an execution step (e.g. one training cycle).
    pub fn begin_task(&self, name: &str, cycle: u64) -> TaskHandle {
        let mut st = self.state.lock();
        let id = st.next_task;
        st.next_task += 1;
        st.open_tasks.insert(
            id,
            Task {
                name: name.to_string(),
                id,
                cycle,
                started_at_ns: self.clock.now().as_nanos(),
                inputs: BTreeMap::new(),
                outputs: BTreeMap::new(),
            },
        );
        TaskHandle(id)
    }

    /// Attach an output value (e.g. the epoch's accuracy) to a step.
    pub fn task_output(&self, task: TaskHandle, key: &str, value: &str) {
        if let Some(t) = self.state.lock().open_tasks.get_mut(&task.0) {
            t.outputs.insert(key.to_string(), value.to_string());
        }
    }

    /// End a step: the full record (with duplicated workflow context) is
    /// serialized immediately, like ProvLake pushing to its collector.
    pub fn end_task(&self, task: TaskHandle) {
        self.clock.advance(SimDuration::from_nanos(PUSH_LATENCY_NS));
        let mut st = self.state.lock();
        let Some(t) = st.open_tasks.remove(&task.0) else {
            return;
        };
        let record = StepRecord {
            record_kind: "task_execution",
            workflow: &self.workflow,
            workflow_instance: self.instance,
            workflow_attributes: &st.workflow_attributes,
            task: &t.name,
            task_id: t.id,
            cycle: t.cycle,
            started_at_ns: t.started_at_ns,
            ended_at_ns: self.clock.now().as_nanos(),
            inputs: &t.inputs,
            outputs: &t.outputs,
        };
        let line = record.to_json();
        st.lines.push(line);
        st.records += 1;
    }

    /// Number of step records so far.
    pub fn record_count(&self) -> u64 {
        self.state.lock().records
    }

    /// End the workflow: write all records and return stored bytes.
    pub fn finish(&self) -> u64 {
        let body = {
            let st = self.state.lock();
            let mut body = String::with_capacity(st.lines.iter().map(|l| l.len() + 1).sum());
            for l in &st.lines {
                body.push_str(l);
                body.push('\n');
            }
            body
        };
        let now = SimTime::ZERO;
        if let Ok(ino) = self.fs.create_file(&self.path, false, "provlake", now) {
            let _ = self.fs.truncate_ino(ino, 0, now);
            let _ = self.fs.write_at(ino, 0, body.as_bytes(), now);
        }
        body.len() as u64
    }

    pub fn path(&self) -> &str {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_hpcfs::LustreConfig;

    fn rig() -> (Arc<FileSystem>, ProvLakeTracker, VirtualClock) {
        let fs = FileSystem::new(LustreConfig::default());
        let clock = VirtualClock::new();
        let t = ProvLakeTracker::new(
            Arc::clone(&fs),
            "/provlake/topreco.jsonl",
            "topreco",
            1,
            clock.clone(),
        );
        (fs, t, clock)
    }

    #[test]
    fn step_records_written_as_jsonl() {
        let (fs, t, _) = rig();
        t.set_workflow_attribute("learning_rate", "0.01");
        let h = t.begin_task("train_epoch", 0);
        t.task_output(h, "accuracy", "0.81");
        t.end_task(h);
        let h = t.begin_task("train_epoch", 1);
        t.task_output(h, "accuracy", "0.85");
        t.end_task(h);
        let bytes = t.finish();
        assert!(bytes > 0);
        assert_eq!(t.record_count(), 2);

        let ino = fs.lookup("/provlake/topreco.jsonl").unwrap();
        let size = fs.stat("/provlake/topreco.jsonl").unwrap().size;
        let text = String::from_utf8(fs.read_at(ino, 0, size).unwrap().to_vec()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let rec: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(rec["workflow"], "topreco");
        assert_eq!(rec["cycle"], 1);
        assert_eq!(rec["outputs"]["accuracy"], "0.85");
        // Context duplication: workflow attributes present in EVERY record.
        for l in &lines {
            let v: serde_json::Value = serde_json::from_str(l).unwrap();
            assert_eq!(v["workflow_attributes"]["learning_rate"], "0.01");
        }
    }

    #[test]
    fn storage_grows_with_context_times_steps() {
        // More workflow attributes → bigger per-step records, even if the
        // steps never use them. This is the structural reason PROV-IO wins
        // Figure 8(d-f).
        let sizes: Vec<u64> = [20usize, 40, 80]
            .into_iter()
            .map(|nconfigs| {
                let (_, t, _) = rig();
                for i in 0..nconfigs {
                    t.set_workflow_attribute(&format!("hp_{i}"), "value");
                }
                for epoch in 0..10 {
                    let h = t.begin_task("train_epoch", epoch);
                    t.task_output(h, "accuracy", "0.9");
                    t.end_task(h);
                }
                t.finish()
            })
            .collect();
        assert!(sizes[1] > sizes[0]);
        assert!(sizes[2] > sizes[1]);
        // Roughly linear in the attribute count.
        let growth1 = sizes[1] - sizes[0];
        let growth2 = sizes[2] - sizes[1];
        assert!(growth2 > growth1, "context duplication compounds");
    }

    #[test]
    fn api_calls_charge_the_clock() {
        let (_, t, clock) = rig();
        t.set_workflow_attribute("learning_rate", "0.01");
        for epoch in 0..100 {
            let h = t.begin_task("train_epoch", epoch);
            t.task_output(h, "accuracy", "0.5");
            t.end_task(h);
        }
        t.finish();
        // One modeled round trip per attribute and per ended step; nothing
        // else moves the clock.
        assert_eq!(clock.now().as_nanos(), 101 * PUSH_LATENCY_NS);
    }

    #[test]
    fn unknown_task_handle_ignored() {
        let (_, t, _) = rig();
        t.task_output(TaskHandle(999), "k", "v");
        t.end_task(TaskHandle(999));
        assert_eq!(t.record_count(), 0);
    }

    #[test]
    fn finish_is_idempotent() {
        let (_, t, _) = rig();
        let h = t.begin_task("x", 0);
        t.end_task(h);
        assert_eq!(t.finish(), t.finish());
    }
}
