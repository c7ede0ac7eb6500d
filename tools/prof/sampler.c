// A sampling CPU profiler loaded with LD_PRELOAD (x86-64 Linux, frame
// pointers). Every 4 ms of CPU time SIGPROF interrupts the process; the
// handler walks the interrupted thread's frame-pointer chain and appends
// the program counters to a buffer. At exit it writes /proc/self/maps and
// the samples to prof.<pid>.txt in the working directory, for report.py.
//
//   cc -O2 -shared -fPIC -o libsampler.so tools/prof/sampler.c
//   LD_PRELOAD=$PWD/libsampler.so ./program ...
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 96
#define CAP_WORDS (1u << 22) // 32 MiB of address space, touched as used

static uintptr_t *buf; // per sample: depth, then that many pcs, leaf first
static size_t used;

// True iff the page holding `addr` is mapped: mincore is async-signal-safe
// and fails with ENOMEM on an unmapped page, where a load would fault.
static int mapped(uintptr_t addr) {
    unsigned char v;
    return mincore((void *)(addr & ~(uintptr_t)4095), 1, &v) == 0;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    const ucontext_t *uc = ctx;
    uintptr_t pcs[MAX_DEPTH];
    size_t n = 0;
    pcs[n++] = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    // A frame is [saved rbp, return address]; callers sit at higher
    // addresses, so a chain that does not climb has left the stack.
    while (n < MAX_DEPTH && fp >= sp && fp % 8 == 0 && mapped(fp) && mapped(fp + 15)) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret == 0) break;
        pcs[n++] = ret - 1; // inside the call instruction, for line lookup
        if (next <= fp) break;
        fp = next;
    }
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (buf == NULL || at + n + 1 > CAP_WORDS) return; // full: drop it
    buf[at] = n;
    memcpy(&buf[at + 1], pcs, n * sizeof pcs[0]);
}

__attribute__((constructor)) static void start(void) {
    void *m = mmap(NULL, CAP_WORDS * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (m == MAP_FAILED) return;
    buf = m;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (buf == NULL) return;
    char path[64], line[4096];
    snprintf(path, sizeof path, "prof.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (out == NULL || maps == NULL) return;
    fputs("# maps\n", out);
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fclose(maps);
    fputs("# samples\n", out);
    size_t end = used < CAP_WORDS ? used : CAP_WORDS;
    // A sample dropped for want of room left its depth word zero.
    for (size_t at = 0; at < end && at + buf[at] < end; at += buf[at] + 1) {
        for (size_t i = 1; i <= buf[at]; i++) fprintf(out, "%lx%c", (unsigned long)buf[at + i], i < buf[at] ? ' ' : '\n');
    }
    fclose(out);
    fprintf(stderr, "sampler: wrote %s\n", path);
}
