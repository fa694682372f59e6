/* The calling thread's CPU clock, for Backend_realtime's attribution of
   its loop's time. One clock_gettime(CLOCK_THREAD_CPUTIME_ID) costs about
   half the getrusage(RUSAGE_SELF) behind Sys.time, allocates nothing, and
   counts only the calling thread, so an executor running on its own
   domain reads its own loop's CPU whatever the other domains do. */

#define _POSIX_C_SOURCE 199309L

#include <time.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

double shoalpp_thread_cpu_s_unboxed(value unit) {
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value shoalpp_thread_cpu_s(value unit) {
  return caml_copy_double(shoalpp_thread_cpu_s_unboxed(unit));
}
