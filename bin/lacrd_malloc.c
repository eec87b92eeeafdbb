/* lacrd's allocator policy.  OCaml 5 takes every block larger than
   128 words from malloc, in the arena of the thread that allocates it.
   glibc serves requests above its mmap threshold with a private
   mapping, returned to the system on free, but by default it raises
   that threshold to the size of each such block freed, up to 32 MB.
   Left dynamic, the threshold climbs during a long-lived daemon's
   first cold plans; later large arrays then come from the worker
   domains' arenas, which keep freed pages, and the resident set
   depends on which worker ran which plan.  Pinned, large blocks keep
   their own mappings for the life of the process. */

#include <caml/mlvalues.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

CAMLprim value lacrd_pin_mmap_threshold(value bytes)
{
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, Int_val(bytes));
#else
  (void)bytes;
#endif
  return Val_unit;
}
