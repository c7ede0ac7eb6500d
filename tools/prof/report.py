#!/usr/bin/env python3
"""Self and inclusive time per function from a sampler.c profile.

    python3 tools/prof/report.py prof.<pid>.txt [--focus SUBSTRING] [--top N]

Each sample's program counters are mapped to their ELF file through the
profile's copy of /proc/<pid>/maps and resolved with `addr2line -f -i -C`,
so a frame inlined into its caller counts as a function of its own.
"Self" is the innermost frame of a sample, "inclusive" every function on
its stack (once per sample). With --focus only samples whose stack holds
a function whose name contains SUBSTRING count (e.g. serve_order::drive),
and percentages are of those samples.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess

HASH = re.compile(r"::h[0-9a-f]{16}$")


def read_profile(path):
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                section = line[2:]
            elif section == "maps":
                fields = line.split(None, 5)
                start, end = (int(x, 16) for x in fields[0].split("-"))
                if "x" in fields[1]:
                    name = fields[5] if len(fields) == 6 else "[anon]"
                    maps.append((start, end, int(fields[2], 16), name))
            elif section == "samples" and line:
                samples.append([int(pc, 16) for pc in line.split()])
    maps.sort()
    return maps, samples


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD of an ELF64 file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        kind, _, offset, vaddr, _, filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if kind == 1:
            segments.append((offset, vaddr, filesz))
    return segments


def locate(maps, pc, segments):
    """(file, address as addr2line wants it) for `pc`, or None."""
    i = bisect.bisect_right(maps, (pc, float("inf"))) - 1
    if i < 0 or not maps[i][0] <= pc < maps[i][1]:
        return None
    start, _, offset, name = maps[i]
    if not name.startswith("/"):
        return None
    if name not in segments:
        try:
            segments[name] = load_segments(name)
        except OSError:
            segments[name] = []
    file_offset = pc - start + offset
    for seg_offset, vaddr, filesz in segments[name]:
        if seg_offset <= file_offset < seg_offset + filesz:
            return name, file_offset - seg_offset + vaddr
    return None


def symbolize(by_file):
    """{(file, addr): [function, ...] innermost first}."""
    frames = {}
    for name, addrs in by_file.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", name],
            input="\n".join(hex(a) for a in addrs),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        # Per address: the address, then (function, file:line) pairs,
        # innermost inlined function first.
        current, pos = None, 0
        for line in out:
            if re.fullmatch(r"0x[0-9a-f]+", line):
                current, pos = frames.setdefault((name, int(line, 16)), []), 0
                continue
            if pos % 2 == 0:
                fn = HASH.sub("", line)
                current.append(fn if fn != "??" else "?? (%s)" % name.rsplit("/", 1)[-1])
            pos += 1
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--focus")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args()
    maps, samples = read_profile(args.profile)
    segments, located, by_file = {}, {}, collections.defaultdict(set)
    for sample in samples:
        for pc in sample:
            if pc not in located:
                located[pc] = locate(maps, pc, segments)
                if located[pc]:
                    by_file[located[pc][0]].add(located[pc][1])
    frames = symbolize(by_file)
    self_n, incl_n, kept = collections.Counter(), collections.Counter(), 0
    for sample in samples:
        stack = []
        for pc in sample:
            where = located[pc]
            stack.extend(frames.get(where) or ["?? %#x" % pc])
        if args.focus and not any(args.focus in fn for fn in stack):
            continue
        kept += 1
        self_n[stack[0]] += 1
        incl_n.update(set(stack))
    if kept == 0:
        raise SystemExit("no samples%s" % (" in focus" if args.focus else ""))
    print("%d samples (%d in focus), about %.1f s of CPU at 4 ms a sample"
          % (len(samples), kept, len(samples) * 0.004))
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print("\n%8s %8s  function (by %s)" % ("self %", "incl %", title))
        for fn, _ in counts.most_common(args.top):
            print("%8.2f %8.2f  %s" % (100 * self_n[fn] / kept, 100 * incl_n[fn] / kept, fn))


if __name__ == "__main__":
    main()
