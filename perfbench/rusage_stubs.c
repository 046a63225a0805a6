/* wait4(2) for one child, returning its exit code and peak resident
   set size.  OCaml's Unix library has waitpid but no rusage. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 : int -> int * int
   (exit code, or 128 + signal number; ru_maxrss in KiB).
   (-1, 0) when wait4 fails. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  pid_t pid = Int_val(vpid), r;
  int status = 0, code;
  struct rusage ru;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  res = caml_alloc_tuple(2);
  if (r < 0) {
    Store_field(res, 0, Val_int(-1));
    Store_field(res, 1, Val_long(0));
  } else {
    code = WIFEXITED(status) ? WEXITSTATUS(status)
         : WIFSIGNALED(status) ? 128 + WTERMSIG(status) : -1;
    Store_field(res, 0, Val_int(code));
    Store_field(res, 1, Val_long(ru.ru_maxrss));
  }
  CAMLreturn(res);
}
