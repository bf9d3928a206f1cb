/* System calls the benchmark needs and OCaml's Unix library does not
   expose: wait4(2) for a child's resource usage, and CPU pinning. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Reap one child: (exit code or -1, user s, system s, peak RSS kB). */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  pid_t pid = Int_val(vpid);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  Store_field(res, 1, caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6));
  Store_field(res, 2, caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* Pin process [pid] (0: the caller) to CPU [cpu]; false when the CPU
   does not exist or is not allowed. */
value perfbench_pin(value vpid, value vcpu)
{
  cpu_set_t set;
  int cpu = Int_val(vcpu);
  if (cpu < 0 || cpu >= CPU_SETSIZE) return Val_false;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return Val_bool(sched_setaffinity(Int_val(vpid), sizeof(set), &set) == 0);
}
