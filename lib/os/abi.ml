(** The OS syscall ABI (Unix-v4 flavored; see DESIGN.md "OS layer ABI").

    OS syscalls claim the trap-immediate window [{!trap_base},
    {!trap_limit}): a [ta (trap_base + num)] instruction requests syscall
    [num]. Immediates below the window keep the emulator's builtin debug
    convention ([ta 1] exit, [ta 2] putint, ...), so OS-mode programs can
    still use those while running under the OS layer.

    Register convention (mirroring the SPARC kernel trap ABI): arguments in
    %o0–%o2, result in %o0. Errors follow the classic carry-flag
    convention: on success the carry bit of the condition codes is clear
    and %o0 holds the result; on failure carry is set and %o0 holds the
    errno. Programs branch on the flag with [bcs]/[bcc] right after the
    trap. Syscall numbers are Unix v4's. *)

let trap_base = 16
let trap_limit = 48

(* syscall numbers (Unix v4) *)
let sys_exit = 1
let sys_read = 3
let sys_write = 4
let sys_open = 5
let sys_close = 6
let sys_brk = 17

(* errnos *)
let eperm = 1
let enoent = 2
let ebadf = 9
let einval = 22
let emfile = 24

let names =
  [
    (sys_exit, "exit");
    (sys_read, "read");
    (sys_write, "write");
    (sys_open, "open");
    (sys_close, "close");
    (sys_brk, "brk");
  ]

let name num = List.assoc_opt num names

(** Is this raw [ta] immediate inside the OS window? *)
let in_window imm = imm >= trap_base && imm < trap_limit

(** Raw trap immediate -> syscall number, when inside the OS window. *)
let num_of_trap_imm imm = if in_window imm then Some (imm - trap_base) else None

(** Raw trap immediate -> implemented-syscall mnemonic ([None] for
    immediates outside the window {e and} for in-window numbers no call is
    assigned to — callers annotating disassembly fall back silently). *)
let name_of_trap_imm imm = Option.bind (num_of_trap_imm imm) name

(** Syscall number -> the [ta] immediate that requests it (for program
    generators). *)
let trap_imm num = trap_base + num

(* open(2) modes *)
let o_wronly = 1

(** Highest fd the table holds (0..max_fd); opens past it fail [EMFILE]. *)
let max_fd = 15
