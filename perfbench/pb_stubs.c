/* Two small system calls the benchmark needs and the libraries do not
   expose.

   pb_now_ns: an allocation-free monotonic clock for the hot loops (the
   library's Clock.now boxes an int64 per read, which would charge the
   harness's own timestamps to the GC figures it reports).

   pb_thread_cpu_ns: the calling thread's CPU time, allocation-free.
   With paravirtual steal-time accounting it leaves out the time the
   host took the CPU away, so wall time minus CPU time across a busy
   loop is the time the thread was kept off its CPU.

   pb_nth_cpu, pb_pin_cpu: pin the benchmark and the broker daemon to
   one allowed CPU each, so the load generator and the daemon keep a
   core of their own instead of being woken onto the same one. */
#define _GNU_SOURCE
#include <sched.h>
#include <stdint.h>
#include <time.h>
#include <unistd.h>
#include <caml/mlvalues.h>

intnat pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value pb_now_ns_byte(value unit)
{
  return Val_long(pb_now_ns(unit));
}

static intnat ns_of(clockid_t clock)
{
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) return -1;
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat pb_thread_cpu_ns(value unit)
{
  (void)unit;
  return ns_of(CLOCK_THREAD_CPUTIME_ID);
}

value pb_thread_cpu_ns_byte(value unit)
{
  return Val_long(pb_thread_cpu_ns(unit));
}

/* The n-th CPU this process may run on, or -1. */
value pb_nth_cpu(value n)
{
  cpu_set_t allowed;
  int seen = 0;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_int(-1);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &allowed) && seen++ == Int_val(n)) return Val_int(cpu);
  return Val_int(-1);
}

value pb_pin_cpu(value cpu)
{
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(Int_val(cpu), &one);
  return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
}

/* pb_idle_watch: spin forever at SCHED_IDLE priority on the broker
   daemon's CPU, so that CPU never enters an idle state but yields at
   once to any other task, and watch it.  Records go to [fd], four
   native int64 each:

   - (0, start, end, held): a gap.  Whenever the spinner was off the
     CPU for longer than [thresh_ns], the daemon's CPU time over that
     gap is read; if the gap exceeds it by [held] > [thresh_ns], the
     host or another task held the CPU for [held] ns between [start]
     and [end] (monotonic ns).
   - (1, now, turns, ns): every 50 ms, how many uninterrupted turns of
     the loop (clock read and compare) the spinner has made so far and
     how long they took: the CPU's speed while the daemon waited.

   Returns [false] if the priority or the daemon's CPU clock is refused,
   [true] once that clock can no longer be read (the daemon is gone). */
static int put(int fd, int64_t a, int64_t b, int64_t c, int64_t d)
{
  int64_t r[4] = { a, b, c, d };
  return write(fd, r, sizeof r) == (ssize_t)sizeof r;
}

value pb_idle_watch(value pid, value fd, value thresh_ns)
{
  struct sched_param p = { .sched_priority = 0 };
  clockid_t daemon;
  intnat thresh = Long_val(thresh_ns);
  intnat last, used, report, turns = 0, turn_ns = 0;
  if (clock_getcpuclockid(Int_val(pid), &daemon) != 0) return Val_false;
  if (sched_setscheduler(0, SCHED_IDLE, &p) != 0) return Val_false;
  last = ns_of(CLOCK_MONOTONIC);
  used = ns_of(daemon);
  report = last + 50000000;
  for (;;) {
    intnat now = ns_of(CLOCK_MONOTONIC);
    if (now - last <= 5000) {
      turns++;
      turn_ns += now - last;
    } else if (now - last > thresh) {
      intnat u = ns_of(daemon);
      if (u < 0) return Val_true;
      intnat held = (now - last) - (u - used);
      if (held > thresh && !put(Int_val(fd), 0, last, now, held))
        return Val_true;
      used = u;
    }
    if (now >= report) {
      if (!put(Int_val(fd), 1, now, turns, turn_ns)) return Val_true;
      report = now + 50000000;
    }
    last = now;
  }
}
