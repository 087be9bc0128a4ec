import json
import os
import threading
from multiprocessing import resource_tracker, shared_memory

from perfbench import system
from perfbench.workloads import settled_status
from repro.service import JobState, job_dir


def test_stop_helpers_ends_the_resource_tracker_and_reaps_children():
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker
    tracker_pid = tracker._pid
    assert tracker_pid is not None and system.alive(tracker_pid)
    child_pid = os.fork()
    if child_pid == 0:
        os._exit(0)
    os.waitid(os.P_PID, child_pid, os.WEXITED | os.WNOWAIT)

    system.stop_helpers()

    assert tracker._fd is None
    assert not system.alive(tracker_pid)
    assert not os.path.exists(f"/proc/{child_pid}")


def test_settled_status_waits_for_the_status_file_to_catch_up(tmp_path):

    path = job_dir(tmp_path, "job-0000") / "status.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"state": JobState.RUNNING}))
    timer = threading.Timer(0.1, path.write_text, (json.dumps({"state": JobState.DONE}),))
    timer.start()
    try:
        assert settled_status(tmp_path, "job-0000")["state"] == JobState.DONE
    finally:
        timer.cancel()
