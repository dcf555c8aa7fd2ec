module Gen = Eel_workload.Gen

let exit0 = "        mov 0, %o0\n        ta 1\n        nop\n"

(* arithmetic + condition-code loop: traps carry computed values *)
let countdown =
  {|
main:   mov 5, %l0
Lloop:  mov %l0, %o0
        ta 2
        subcc %l0, 1, %l0
        bne Lloop
        nop
|}
  ^ exit0

(* delayed and annulled control transfer, taken and untaken *)
let delay_slots =
  {|
main:   mov 1, %l0
        ba Lnext
        add %l0, 10, %l0
Lnext:  cmp %l0, 11
        be,a Ltaken
        add %l0, 100, %l0
        add %l0, 1000, %l0
Ltaken: mov %l0, %o0
        ta 2
        cmp %l0, 0
        be,a Ldead
        add %l0, 7, %l0
        mov %l0, %o0
        ta 2
Ldead:
|}
  ^ exit0

(* every store width, so the Ob_store payloads span widths 1/2/4/8 *)
let mem_widths =
  {|
main:   set buf, %l0
        mov 258, %l1
        st %l1, [%l0]
        ld [%l0], %o0
        ta 2
        sth %l1, [%l0 + 8]
        lduh [%l0 + 8], %o0
        ta 2
        stb %l1, [%l0 + 12]
        ldub [%l0 + 12], %o0
        ta 2
        mov 7, %l2
        mov 9, %l3
        std %l2, [%l0 + 16]
        ldd [%l0 + 16], %o2
        add %o2, %o3, %o0
        ta 2
|}
  ^ exit0
  ^ {|
        .bss
        .align 8
buf:    .space 32
|}

(* register-indirect dispatch through a .data address table: the editor
   must translate the table's code pointers *)
let jump_table =
  {|
main:   mov 0, %l7
        mov 0, %l3
Lcase:  set table, %l0
        sll %l3, 2, %l1
        ld [%l0 + %l1], %l2
        jmp %l2
        nop
c0:     add %l7, 100, %l7
        ba Lnext
        nop
c1:     add %l7, 200, %l7
        ba Lnext
        nop
c2:     add %l7, 400, %l7
Lnext:  add %l3, 1, %l3
        cmp %l3, 3
        bl Lcase
        nop
        mov %l7, %o0
        ta 2
|}
  ^ exit0
  ^ {|
        .data
        .align 4
table:  .word c0, c1, c2
|}

(* recursion with explicit %o7 spills: stored return addresses are code
   pointers — the values the oracle's inverse address map normalizes *)
let fib =
  {|
main:   mov 10, %o0
        call fib
        nop
        ta 2
|}
  ^ exit0
  ^ {|
fib:    cmp %o0, 2
        bl Lbase
        nop
        sub %sp, 16, %sp
        st %o7, [%sp]
        st %o0, [%sp + 4]
        call fib
        sub %o0, 1, %o0
        st %o0, [%sp + 8]
        ld [%sp + 4], %o0
        call fib
        sub %o0, 2, %o0
        ld [%sp + 8], %o1
        add %o0, %o1, %o0
        ld [%sp], %o7
        add %sp, 16, %sp
        retl
        nop
Lbase:  retl
        mov 1, %o0
|}

(* the write syscall: trap argument is a pointer into .data *)
let hello =
  {|
main:   set msg, %o0
        mov 6, %o1
        ta 4
        mov 42, %o0
        ta 2
|}
  ^ exit0
  ^ {|
        .data
msg:    .ascii "hello\n"
|}

let sources : (string * string) list =
  [
    ("countdown", countdown);
    ("delay-slots", delay_slots);
    ("mem-widths", mem_widths);
    ("jump-table", jump_table);
    ("fib", fib);
    ("hello", hello);
    ("gcc-small", Gen.program { Gen.default with seed = 42; routines = 12 });
    ("gcc-tiny", Gen.program { Gen.default with seed = 7; routines = 8 });
    ( "sunpro-small",
      Gen.program
        { Gen.default with seed = 42; routines = 10; style = Gen.Sunpro } );
    ( "sunpro-tiny",
      Gen.program
        { Gen.default with seed = 3; routines = 6; style = Gen.Sunpro } );
    ("memory-bound", Gen.memory_bound ~iters:4 ~size_words:64 ());
  ]

let all () =
  List.map
    (fun (name, src) ->
      match Eel_sparc.Asm.assemble src with
      | Ok exe -> (name, exe)
      | Error m -> failwith (Printf.sprintf "corpus %s: %s" name m))
    sources

module Os_spec = Eel_os.Spec

(* OS trap immediates: Abi.trap_base (16) + the Unix-v4 syscall number *)
let t_exit = 16 + Eel_os.Abi.sys_exit
let t_read = 16 + Eel_os.Abi.sys_read
let t_write = 16 + Eel_os.Abi.sys_write
let t_open = 16 + Eel_os.Abi.sys_open
let t_close = 16 + Eel_os.Abi.sys_close

let os_exit0 = Printf.sprintf "        mov 0, %%o0\n        ta %d\n        nop\n" t_exit

(* write to stdout and stderr (both reach the emulator's output stream),
   then exit through the OS call rather than the builtin trap *)
let os_hello =
  Printf.sprintf
    {|
main:   mov 1, %%o0
        set msg, %%o1
        mov 15, %%o2
        ta %d
        mov 2, %%o0
        set msg2, %%o1
        mov 8, %%o2
        ta %d
|}
    t_write t_write
  ^ os_exit0
  ^ {|
        .data
msg:    .ascii "hello, os world"
msg2:   .ascii "and err\n"
|}

(* stdin-to-stdout pump: the canonical read-until-EOF loop *)
let os_cat =
  Printf.sprintf
    {|
main:
Lrd:    mov 0, %%o0
        set buf, %%o1
        mov 16, %%o2
        ta %d
        cmp %%o0, 0
        be Lfin
        nop
        mov %%o0, %%o2
        mov 1, %%o0
        set buf, %%o1
        ta %d
        ba Lrd
        nop
Lfin:
|}
    t_read t_write
  ^ os_exit0
  ^ {|
        .bss
        .align 4
buf:    .space 16
|}

(* upcasing filter: per-byte loads/stores between the read and the write,
   so the OS stream interleaves with ordinary observable stores *)
let os_upcase =
  Printf.sprintf
    {|
main:
Lrd:    mov 0, %%o0
        set buf, %%o1
        mov 12, %%o2
        ta %d
        cmp %%o0, 0
        be Lfin
        nop
        mov %%o0, %%l4
        mov 0, %%l0
        set buf, %%l1
Lbyte:  ldub [%%l1 + %%l0], %%l2
        cmp %%l2, 97
        bl Lskip
        nop
        cmp %%l2, 122
        bg Lskip
        nop
        sub %%l2, 32, %%l2
        stb %%l2, [%%l1 + %%l0]
Lskip:  add %%l0, 1, %%l0
        cmp %%l0, %%l4
        bl Lbyte
        nop
        mov 1, %%o0
        set buf, %%o1
        mov %%l4, %%o2
        ta %d
        ba Lrd
        nop
Lfin:
|}
    t_read t_write
  ^ os_exit0
  ^ {|
        .bss
        .align 4
buf:    .space 12
|}

(* byte counter: accumulates read lengths in a delay slot, reports the
   total through the builtin putint trap (the two trap surfaces coexist),
   and exits with the count — the --exit-status satellite's test program *)
let os_count =
  Printf.sprintf
    {|
main:   mov 0, %%l5
Lrd:    mov 0, %%o0
        set buf, %%o1
        mov 8, %%o2
        ta %d
        cmp %%o0, 0
        be Lfin
        nop
        ba Lrd
        add %%l5, %%o0, %%l5
Lfin:   mov %%l5, %%o0
        ta 2
        mov %%l5, %%o0
        ta %d
        nop
        .bss
        .align 4
buf:    .space 8
|}
    t_read t_exit

(* file copy through open/read/write/close; write results are deliberately
   unused, so SFI's deny-write-fd>2 policy suppresses the writes without
   changing any later control flow *)
let os_copy =
  Printf.sprintf
    {|
main:   set inpath, %%o0
        mov 0, %%o1
        ta %d
        bcs Lbad
        nop
        mov %%o0, %%l6
        set outpath, %%o0
        mov 1, %%o1
        ta %d
        bcs Lbad
        nop
        mov %%o0, %%l7
Lcp:    mov %%l6, %%o0
        set buf, %%o1
        mov 10, %%o2
        ta %d
        cmp %%o0, 0
        be Lcls
        nop
        mov %%o0, %%o2
        mov %%l7, %%o0
        set buf, %%o1
        ta %d
        ba Lcp
        nop
Lcls:   mov %%l6, %%o0
        ta %d
        mov %%l7, %%o0
        ta %d
|}
    t_open t_open t_read t_write t_close t_close
  ^ os_exit0
  ^ Printf.sprintf
      {|
Lbad:   ta 2
        mov 1, %%o0
        ta %d
        nop
        .bss
        .align 4
buf:    .space 10
        .data
inpath: .asciz "in.txt"
outpath: .asciz "out.txt"
|}
      t_exit

(* config-reading dispatcher: the first byte of a config file selects the
   branch — data-dependent control flow rooted in file contents *)
let os_config =
  Printf.sprintf
    {|
main:   set cfgpath, %%o0
        mov 0, %%o1
        ta %d
        bcs Lbad
        nop
        mov %%o0, %%l6
        mov %%l6, %%o0
        set buf, %%o1
        mov 4, %%o2
        ta %d
        cmp %%o0, 1
        bl Lbad
        nop
        mov %%l6, %%o0
        ta %d
        set buf, %%l1
        ldub [%%l1], %%l2
        cmp %%l2, 97
        be La
        nop
        cmp %%l2, 98
        be Lb
        nop
        mov 300, %%o0
        ba Lout
        nop
La:     mov 100, %%o0
        ba Lout
        nop
Lb:     mov 200, %%o0
Lout:   ta 2
|}
    t_open t_read t_close
  ^ os_exit0
  ^ {|
Lbad:   mov 99, %o0
        ta 2
        mov 1, %o0
|}
  ^ Printf.sprintf "        ta %d\n        nop\n" t_exit
  ^ {|
        .bss
        .align 4
buf:    .space 4
        .data
cfgpath: .asciz "app.cfg"
|}

(* the error surface: every errno path the ABI defines, each checked with
   the carry-flag convention (bcc = "this call unexpectedly succeeded").
   The bad-write probe uses fd 0 — stdin is unwritable (EBADF) but inside
   the standard streams, so SFI's deny-write-fd>2 policy never rewrites
   the errno this program goes on to print *)
let os_err =
  Printf.sprintf
    {|
main:   set missing, %%o0
        mov 0, %%o1
        ta %d
        bcc Lbad
        nop
        ta 2
        mov 0, %%o0
        set buf, %%o1
        mov 4, %%o2
        ta %d
        bcc Lbad
        nop
        ta 2
        mov 1, %%o0
        set buf, %%o1
        mov 4, %%o2
        ta %d
        bcc Lbad
        nop
        ta 2
        mov 7, %%o0
        ta %d
        bcc Lbad
        nop
        ta 2
        ta 35
        bcc Lbad
        nop
        ta 2
|}
    t_open t_write t_read t_close
  ^ os_exit0
  ^ Printf.sprintf
      {|
Lbad:   mov 999, %%o0
        ta 2
        mov 1, %%o0
        ta %d
        nop
        .bss
        .align 4
buf:    .space 4
        .data
missing: .asciz "no-such-file"
|}
      t_exit

let spec_of_world (w : Gen.os_world) =
  Os_spec.make ~files:w.Gen.ow_files ~stdin:w.Gen.ow_stdin ()

let os_gen seed =
  let src, world = Gen.os_program { Gen.default with seed } in
  (src, spec_of_world world)

let os_sources : (string * (string * Os_spec.t)) list =
  [
    ("os-hello", (os_hello, Os_spec.empty));
    ( "os-cat",
      (os_cat, Os_spec.make ~stdin:"The quick brown fox.\nJumps over.\n" ()) );
    ( "os-upcase",
      (os_upcase, Os_spec.make ~stdin:"Mixed Case input 123 ok?\n" ()) );
    ( "os-count",
      (os_count, Os_spec.make ~stdin:"count the stdin bytes, please\n" ()) );
    ( "os-copy",
      ( os_copy,
        Os_spec.make ~files:[ ("in.txt", "payload to copy, 33 bytes long.\n") ]
          () ) );
    ( "os-config",
      (os_config, Os_spec.make ~files:[ ("app.cfg", "b=fast\n") ] ()) );
    ("os-err", (os_err, Os_spec.empty));
    ("os-gen-filter", os_gen 7);
    ("os-gen-count", os_gen 3);
    ("os-gen-copy", os_gen 0);
    ("os-gen-config", os_gen 1);
  ]

let all_os () =
  List.map
    (fun (name, (src, spec)) ->
      match Eel_sparc.Asm.assemble src with
      | Ok exe -> (name, exe, spec)
      | Error m -> failwith (Printf.sprintf "os corpus %s: %s" name m))
    os_sources
