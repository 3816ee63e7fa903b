/* Sampling profiler for hosts without perf or valgrind: an LD_PRELOAD shim.
 *
 * Every millisecond of CPU time the process burns (every kernel tick, 4 ms,
 * where that is coarser), SIGPROF interrupts the running thread and the
 * handler records where it was (RIP) and who called it (the frame-pointer
 * chain, so build with force-frame-pointers). At exit the samples and
 * /proc/self/maps go to $PROF_OUT for symbolise.py.
 * x86-64 Linux only. See README.md.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define INTERVAL_US 1000
#define MAX_DEPTH 64
#define MAX_WORDS (16u << 20) /* 128 MiB of address space, touched as used */

static uintptr_t *words; /* per sample: its depth, then that many addresses */
static size_t used;
static pid_t self;

/* Reads the two words of a frame record without faulting on a bad pointer:
 * code built without frame pointers keeps anything at all in RBP. */
static int read_frame(uintptr_t fp, uintptr_t out[2]) {
    struct iovec local = {out, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)fp, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)local.iov_len;
}

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    const greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
    uintptr_t stack[MAX_DEPTH], fp = regs[REG_RBP], frame[2];
    size_t depth = 0;
    stack[depth++] = regs[REG_RIP];
    /* Frames sit above the stack pointer and each caller's above its callee's. */
    uintptr_t floor = regs[REG_RSP];
    while (depth < MAX_DEPTH && fp >= floor && fp % 8 == 0 && read_frame(fp, frame) && frame[1]) {
        stack[depth++] = frame[1];
        floor = fp + 16;
        fp = frame[0];
    }
    size_t at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
    if (at + depth + 1 > MAX_WORDS)
        return;
    words[at] = depth;
    for (size_t i = 0; i < depth; i++)
        words[at + 1 + i] = stack[i];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(getenv("PROF_OUT"), "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    size_t end = used < MAX_WORDS ? used : MAX_WORDS;
    for (size_t at = 0; at < end && at + words[at] < end; at += words[at] + 1) {
        for (size_t i = 1; i <= words[at]; i++)
            fprintf(out, "%lx ", (unsigned long)words[at + i]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("PROF_OUT"))
        return;
    self = getpid();
    words = calloc(MAX_WORDS, sizeof *words);
    if (!words)
        return;
    struct sigaction act = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&act.sa_mask);
    sigaction(SIGPROF, &act, NULL);
    struct itimerval every = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
