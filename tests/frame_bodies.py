"""Helpers for tests that build thread bodies by hand as frame routines."""

from repro.cpu.frames import START, FrameBody, Op, Ret


def frame_body(machine, name, step):
    """Register ``step`` as the frame routine ``name``; returns its FrameBody."""
    machine.register_frame_routine(name, step)
    return FrameBody(name)


def op_sequence(machine, name, *operations):
    """A body that issues ``operations`` in order, then returns None."""

    def step(frame, value, env):
        index = 0 if frame.label == START else int(frame.label) + 1
        if index == len(operations):
            return Ret(None)
        return Op(operations[index], str(index))

    return frame_body(machine, name, step)


def rounds(frame, count):
    """Advance a body's round counter: 0 at START, +1 on every other entry.

    Returns True while rounds remain, so a looping body reads
    ``if not rounds(frame, n): return Ret(...)``.
    """
    L = frame.locals
    L["round"] = 0 if frame.label == START else L["round"] + 1
    return L["round"] < count
