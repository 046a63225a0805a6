/* Pin the calling process, and so every child it starts later, to one
   CPU: the lowest one it may run on now. */

#define _GNU_SOURCE
#include <sched.h>

#include <caml/mlvalues.h>

/* perfbench_pin_one_cpu : unit -> int
   The CPU pinned to, or -1 when the affinity mask cannot be read or
   set (nothing is changed then). */
value perfbench_pin_one_cpu(value unit)
{
  cpu_set_t set;
  int cpu;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set)) break;
  if (cpu == CPU_SETSIZE) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
